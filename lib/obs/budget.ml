type t = {
  deadline : float option; (* absolute wall-clock seconds *)
  conflicts : int option; (* per SAT call *)
  propagations : int option; (* per SAT call *)
  bdd_nodes : int option;
  cancel : bool Atomic.t option; (* cooperative cross-domain stand-down *)
  mutable tripped : bool; (* deadline expiry already counted *)
}

let schema = [ "budget.deadline_expired"; "budget.cancelled" ]

let () = Stats.declare schema

let unlimited =
  {
    deadline = None;
    conflicts = None;
    propagations = None;
    bdd_nodes = None;
    cancel = None;
    tripped = false;
  }

let create ?timeout_s ?conflicts ?propagations ?bdd_nodes ?cancel () =
  {
    deadline = Option.map (fun s -> Stats.now () +. s) timeout_s;
    conflicts;
    propagations;
    bdd_nodes;
    cancel;
    tripped = false;
  }

let is_unlimited t =
  t.deadline = None && t.conflicts = None && t.propagations = None
  && t.bdd_nodes = None && t.cancel = None

let deadline t = t.deadline
let conflicts t = t.conflicts
let propagations t = t.propagations
let bdd_nodes t = t.bdd_nodes

let with_cancel t cancel = { t with cancel = Some cancel; tripped = false }

let cancelled t =
  match t.cancel with None -> false | Some c -> Atomic.get c

let expired t =
  if cancelled t then begin
    if not t.tripped then begin
      t.tripped <- true;
      Stats.count "budget.cancelled" 1
    end;
    true
  end
  else
    match t.deadline with
    | None -> false
    | Some d ->
      (* inclusive: a zero timeout is expired from the first check even
         within one clock tick *)
      let e = Stats.now () >= d in
      if e && not t.tripped then begin
        t.tripped <- true;
        Stats.count "budget.deadline_expired" 1
      end;
      e

let remaining_s t =
  Option.map (fun d -> Float.max 0. (d -. Stats.now ())) t.deadline

let should_stop t =
  match (t.deadline, t.cancel) with
  | None, None -> None
  | Some d, None -> Some (fun () -> Stats.now () >= d)
  | None, Some c -> Some (fun () -> Atomic.get c)
  | Some d, Some c -> Some (fun () -> Atomic.get c || Stats.now () >= d)

let slice t ~ways =
  match t.deadline with
  | None -> { t with tripped = false }
  | Some d ->
    let now = Stats.now () in
    let rem = d -. now in
    (* an expired budget keeps its past deadline: [now +. 0.] would be
       momentarily un-expired under the strict comparison in [expired] *)
    if rem <= 0. then { t with tripped = false }
    else
      let share = rem /. float_of_int (max 1 ways) in
      { t with deadline = Some (now +. share); tripped = false }

let note_exhausted ?budget layer =
  match budget with
  | Some t when cancelled t -> ()
  | Some _ | None -> Stats.count ("budget.exhausted." ^ layer) 1

let pp ppf t =
  if is_unlimited t then Format.fprintf ppf "unlimited"
  else begin
    let sep = ref "" in
    let item fmt =
      Format.fprintf ppf "%s" !sep;
      sep := " ";
      Format.fprintf ppf fmt
    in
    (match remaining_s t with
    | Some s -> item "deadline:%.3fs" s
    | None -> ());
    (match t.conflicts with Some n -> item "conflicts:%d" n | None -> ());
    (match t.propagations with Some n -> item "propagations:%d" n | None -> ());
    (match t.bdd_nodes with Some n -> item "bdd-nodes:%d" n | None -> ());
    if t.cancel <> None then item "cancellable"
  end
