module Net = Netlist.Net
module Lit = Netlist.Lit
module Sim = Netlist.Sim
module Scc = Netlist.Scc

type cls = CC | AC | MC of int | QC of int | GC of int

type component = { regs : int list; cls : cls; deps : int list }

type analysis = {
  components : component array;
  of_reg : (int, int) Hashtbl.t;
  cell_key : (int, int) Hashtbl.t;
}

type counts = { cc : int; ac : int; table : int; gc : int }

(* ---- ternary constant fixpoint ---- *)

let join a b =
  match (a, b) with
  | Sim.V0, Sim.V0 -> Sim.V0
  | Sim.V1, Sim.V1 -> Sim.V1
  | _, _ -> Sim.Vx

let init_value = function
  | Net.Init0 -> Sim.V0
  | Net.Init1 -> Sim.V1
  | Net.Init_x -> Sim.Vx

(* Evaluate the combinational logic with the given state-element values
   and all inputs unknown. *)
let eval_comb net within state =
  let n = Net.num_vars net in
  let vals = Array.make n Sim.Vx in
  let value_of l =
    let v = vals.(Lit.var l) in
    if Lit.is_neg l then Sim.v_not v else v
  in
  Net.iter_nodes net (fun v node ->
      if within.(v) then
        match node with
        | Net.Const -> vals.(v) <- Sim.V0
        | Net.Input _ -> vals.(v) <- Sim.Vx
        | Net.And (a, b) -> vals.(v) <- Sim.v_and (value_of a) (value_of b)
        | Net.Reg _ | Net.Latch _ -> vals.(v) <- state v);
  vals

let state_elems net within =
  List.filter (fun v -> within.(v)) (Net.regs net @ Net.latches net)

let data_edge net v =
  match Net.node net v with
  | Net.Reg r -> r.Net.next
  | Net.Latch l -> l.Net.l_data
  | Net.Const | Net.Input _ | Net.And _ -> invalid_arg "Classify.data_edge"

let init_of net v =
  match Net.node net v with
  | Net.Reg r -> r.Net.r_init
  | Net.Latch l -> l.Net.l_init
  | Net.Const | Net.Input _ | Net.And _ -> invalid_arg "Classify.init_of"

let constant_regs net within =
  let elems = state_elems net within in
  let state = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace state v (init_value (init_of net v))) elems;
  let lookup v = Option.value (Hashtbl.find_opt state v) ~default:Sim.Vx in
  let rec fixpoint budget =
    let vals = eval_comb net within lookup in
    let value_of l =
      let x = vals.(Lit.var l) in
      if Lit.is_neg l then Sim.v_not x else x
    in
    let changed = ref false in
    List.iter
      (fun v ->
        let next = value_of (data_edge net v) in
        let merged = join (lookup v) next in
        if merged <> lookup v then begin
          Hashtbl.replace state v merged;
          changed := true
        end)
      elems;
    if !changed && budget > 0 then fixpoint (budget - 1)
  in
  fixpoint (List.length elems + 2);
  let out = Hashtbl.create 16 in
  Hashtbl.iter
    (fun v value ->
      match value with
      | Sim.V0 -> Hashtbl.replace out v false
      | Sim.V1 -> Hashtbl.replace out v true
      | Sim.Vx -> ())
    state;
  out

(* ---- combinational cone walks ---- *)

(* Every cone walk of one analysis shares a single visited array, told
   apart by a per-walk stamp, instead of allocating a [num_vars] array
   per cone. *)
type walker = { wnet : Net.t; stamp : int array; mutable cur : int }

let walker net =
  { wnet = net; stamp = Array.make (Net.num_vars net) (-1); cur = -1 }

(* The inputs and state elements that [Coi.combinational net roots]
   marks, in no particular order. *)
let cone_leaves w roots =
  w.cur <- w.cur + 1;
  let cur = w.cur in
  let leaves = ref [] in
  let rec visit v =
    if w.stamp.(v) <> cur then begin
      w.stamp.(v) <- cur;
      match Net.node w.wnet v with
      | Net.Const -> ()
      | Net.And (a, b) ->
        visit (Lit.var a);
        visit (Lit.var b)
      | Net.Input _ | Net.Reg _ | Net.Latch _ -> leaves := v :: !leaves
    end
  in
  List.iter (fun l -> visit (Lit.var l)) roots;
  !leaves

(* ---- hold-mux (memory cell) detection ---- *)

(* Does [next] encode "sel ? data : r" (value held when not loaded),
   with neither [sel] nor [data] depending on [r] itself?  The
   self-independence requirement is what separates a memory row (new
   content comes from outside; m rows multiply the diameter by m+1)
   from a toggle-like cell (e.g. a counter bit, whose next state
   "loads" a function of itself and which may need exponentially many
   steps).  Returns the select literal on success. *)
let hold_mux net w r next =
  let self = Lit.make r in
  let independent l =
    (* the combinational walk stops at state elements but marks them *)
    not (List.mem r (cone_leaves w [ l ]))
  in
  let as_and l =
    if Lit.is_neg l then None
    else
      match Net.node net (Lit.var l) with
      | Net.And (a, b) -> Some (a, b)
      | Net.Const | Net.Input _ | Net.Reg _ | Net.Latch _ -> None
  in
  (* next = r & y : hold (y=1) or load 0 (y=0) -> sel = ~y *)
  let and_form l =
    (* hold or load-0: the data branch is the constant false *)
    match as_and l with
    | Some (a, b) when Lit.equal a self && independent b ->
      Some (Lit.neg b, Lit.false_)
    | Some (a, b) when Lit.equal b self && independent a ->
      Some (Lit.neg a, Lit.false_)
    | Some _ | None -> None
  in
  match and_form next with
  | Some result -> Some result
  | None ->
    (* next = ~(p & q) = ~p | ~q; try the full mux decomposition
       (sel & data) | (~sel & r), i.e. p = ~(sel & data),
       q = ~(~sel & r) — and the or-form r | y = hold or load 1 *)
    if not (Lit.is_neg next) then None
    else (
      match as_and (Lit.neg next) with
      | None -> None
      | Some (p, q) ->
        (* or-form: next = ~p | ~q with ~q = r, i.e. hold unless ~p
           loads a 1 *)
        if Lit.equal (Lit.neg q) self && independent p then
          Some (Lit.neg p, Lit.true_)
        else if Lit.equal (Lit.neg p) self && independent q then
          Some (Lit.neg q, Lit.true_)
        else (
          match (as_and (Lit.neg p), as_and (Lit.neg q)) with
          | Some (a1, a2), Some (b1, b2) ->
            (* one conjunct is (sel & data), the other (~sel & r);
               rebuilds may flip which is which, so try both roles and
               both operand orders.  [s]/[data] come from the load
               conjunct, [s'] / [hold] from the hold conjunct. *)
            let branches =
              [
                (a1, a2, b1, b2); (a1, a2, b2, b1);
                (a2, a1, b1, b2); (a2, a1, b2, b1);
                (b1, b2, a1, a2); (b1, b2, a2, a1);
                (b2, b1, a1, a2); (b2, b1, a2, a1);
              ]
            in
            List.find_map
              (fun (s, data, s', hold) ->
                if
                  Lit.equal s (Lit.neg s')
                  && Lit.equal hold self && independent s && independent data
                then Some (s, data)
                else None)
              branches
          | (Some _ | None), (Some _ | None) -> None))

(* ---- analysis ---- *)

let analyze ?within net =
  Obs.span "classify.analyze" @@ fun () ->
  let n = Net.num_vars net in
  let within =
    match within with Some w -> w | None -> Array.make n true
  in
  let elems = state_elems net within in
  let cones = walker net in
  let pos = Array.make n (-1) in
  List.iteri (fun i v -> pos.(v) <- i) elems;
  (* the state elements a cone reads combinationally, in [elems] order *)
  let state_reads roots =
    List.sort
      (fun a b -> compare pos.(a) pos.(b))
      (List.filter (fun u -> pos.(u) >= 0) (cone_leaves cones roots))
  in
  (* one walk per state element: its combinational state support feeds
     both the SCC graph and the component edges *)
  let supports =
    Array.of_list (List.map (fun v -> state_reads [ data_edge net v ]) elems)
  in
  let support v = supports.(pos.(v)) in
  let constants = constant_regs net within in
  (* register dependency graph over non-constant state elements *)
  let live = List.filter (fun v -> not (Hashtbl.mem constants v)) elems in
  let index = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace index v i) live;
  let live_arr = Array.of_list live in
  let nlive = Array.length live_arr in
  let dep_sets =
    Array.map
      (fun v -> List.filter_map (Hashtbl.find_opt index) (support v))
      live_arr
  in
  let scc = Scc.compute nlive (fun i -> dep_sets.(i)) in
  let self_dep i = List.mem i dep_sets.(i) in
  (* initial components in dependency order *)
  let base =
    Array.map
      (fun members ->
        let regs = Array.to_list (Array.map (fun i -> live_arr.(i)) members) in
        (Array.to_list members, regs))
      scc.Scc.members
  in
  (* classify *)
  let cell_select = Hashtbl.create 32 in
  let cell_data = Hashtbl.create 32 in
  let cls_of (members, regs) =
    match members with
    | [ i ] when not (self_dep i) -> AC
    | [ i ] -> (
      let v = live_arr.(i) in
      match hold_mux net cones v (data_edge net v) with
      | Some (sel, data) ->
        Hashtbl.replace cell_select v sel;
        Hashtbl.replace cell_data v data;
        MC 1
      | None -> GC 1)
    | _ -> GC (List.length regs)
  in
  let classified = Array.map (fun c -> (c, cls_of c)) base in
  (* cluster memory cells: queues = chains linked by direct data edges;
     memories = same select-cone support *)
  let is_cell v = Hashtbl.mem cell_select v in
  let direct_pred v =
    (* queue link: another cell inside the LOADED branch's cone (the
       select must not count: a memory gated by a queue is not part of
       the queue) *)
    List.filter
      (fun u -> u <> v && is_cell u)
      (state_reads [ Hashtbl.find cell_data v ])
  in
  (* the select cone's inputs and state elements *)
  let support_sig v =
    List.sort compare (cone_leaves cones [ Hashtbl.find cell_select v ])
  in
  (* union-find over cells *)
  let parent = Hashtbl.create 32 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | Some p when p <> v ->
      let r = find p in
      Hashtbl.replace parent v r;
      r
    | _ -> v
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  let cells = List.filter is_cell live in
  List.iter (fun v -> Hashtbl.replace parent v v) cells;
  (* queue chains *)
  let chain_links = Hashtbl.create 16 in
  let unlinked = Hashtbl.create 16 in
  List.iter
    (fun v ->
      match direct_pred v with
      | [ w ] ->
        union v w;
        Hashtbl.replace chain_links v w
      | [] -> Hashtbl.replace unlinked v ()
      | _ :: _ :: _ -> ())
    cells;
  (* memories: same select support (only among cells with no direct
     predecessor, so none in a chain) *)
  let by_support = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if Hashtbl.mem unlinked v then begin
        let key = support_sig v in
        match Hashtbl.find_opt by_support key with
        | None -> Hashtbl.replace by_support key v
        | Some w -> union v w
      end)
    cells;
  (* assemble final components *)
  let cluster_members = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let r = find v in
      Hashtbl.replace cluster_members r
        (v :: Option.value (Hashtbl.find_opt cluster_members r) ~default:[]))
    cells;
  let comp_of_reg = Hashtbl.create 64 in
  let acc = ref [] in
  let n_comp = ref 0 in
  let push regs cls =
    let id = !n_comp in
    incr n_comp;
    List.iter (fun v -> Hashtbl.replace comp_of_reg v id) regs;
    acc := (regs, cls) :: !acc;
    id
  in
  (* constants first *)
  Hashtbl.iter (fun v _ -> ignore (push [ v ] CC)) constants;
  (* non-cell components in dependency order *)
  Array.iter
    (fun ((_, regs), cls) ->
      match regs with
      | [ v ] when is_cell v -> () (* emitted as clusters below *)
      | _ -> ignore (push regs cls))
    classified;
  (* cell clusters *)
  Hashtbl.iter
    (fun _root members ->
      let depth = List.length members in
      let has_chain = List.exists (fun v -> Hashtbl.mem chain_links v) members in
      if has_chain then ignore (push members (QC depth))
      else begin
        let selects =
          List.sort_uniq compare
            (List.map (fun v -> Lit.to_int (Hashtbl.find cell_select v)) members)
        in
        ignore (push members (MC (List.length selects)))
      end)
    cluster_members;
  let comps = Array.of_list (List.rev !acc) in
  (* dependency edges between final components *)
  let comp_deps =
    Array.mapi
      (fun id (regs, _) ->
        let deps = ref [] in
        List.iter
          (fun v ->
            List.iter
              (fun s ->
                match Hashtbl.find_opt comp_of_reg s with
                | Some d when d <> id && not (List.mem d !deps) ->
                  deps := d :: !deps
                | Some _ | None -> ())
              (support v))
          regs;
        !deps)
      comps
  in
  let components =
    Array.mapi
      (fun id (regs, cls) -> { regs; cls; deps = comp_deps.(id) })
      comps
  in
  let cell_key = Hashtbl.create 16 in
  Hashtbl.iter
    (fun v sel -> Hashtbl.replace cell_key v (Lit.to_int sel))
    cell_select;
  { components; of_reg = comp_of_reg; cell_key }

let counts_of analysis =
  Array.fold_left
    (fun acc c ->
      let n = List.length c.regs in
      match c.cls with
      | CC -> { acc with cc = acc.cc + n }
      | AC -> { acc with ac = acc.ac + n }
      | MC _ | QC _ -> { acc with table = acc.table + n }
      | GC _ -> { acc with gc = acc.gc + n })
    { cc = 0; ac = 0; table = 0; gc = 0 }
    analysis.components

let netlist_counts net = counts_of (analyze net)

let pp_counts ppf c =
  Format.fprintf ppf "%d;%d;%d;%d" c.cc c.ac c.table c.gc
