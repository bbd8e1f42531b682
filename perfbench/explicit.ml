(* Explicit-state ground truth for small target cones.

   Independent of the verifier on purpose: its own .bench reader, its
   own gate-level simulator and its own breadth-first search over the
   reachable states of a target's cone of influence.  Nothing here
   calls the netlist library, the exact/symbolic analyses, BMC replay
   or a SAT backend, so a bound or verdict it refutes is refuted by
   code that shares no logic with the code under test.

   Time semantics match the .bench format the program reads: a DFF
   shows its held value during a step and loads its data input at the
   end of it; a LATCH of phase p is transparent (shows its data input)
   at times t with t mod phases = p and holds otherwise; the target's
   value at time t is read after step t settles. *)

type init = I0 | I1 | Ix

type node =
  | Input
  | Const of bool
  | Gate of string * int array  (** upper-case gate type, operands *)
  | Dff of int * init
  | Latch of int * int  (** data, phase *)

type circuit = {
  names : string array;
  nodes : node array;
  index : (string, int) Hashtbl.t;
  outputs : string list;  (** in declaration order *)
  phases : int;
}

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let parse text =
  let defs = ref [] and outputs = ref [] in
  let inner pre line =
    String.trim
      (String.sub line (String.length pre)
         (String.length line - String.length pre - 1))
  in
  List.iter
    (fun raw ->
      let line =
        match String.index_opt raw '#' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let line = String.trim line in
      let up = String.uppercase_ascii line in
      if line = "" then ()
      else if has_prefix "INPUT(" up then
        defs := (inner "INPUT(" line, `Input) :: !defs
      else if has_prefix "OUTPUT(" up then
        outputs := inner "OUTPUT(" line :: !outputs
      else
        match
          ( String.index_opt line '=',
            String.index_opt line '(',
            String.rindex_opt line ')' )
        with
        | Some eq, Some l, Some r when eq < l && l < r ->
          let name = String.trim (String.sub line 0 eq) in
          let gate =
            String.uppercase_ascii
              (String.trim (String.sub line (eq + 1) (l - eq - 1)))
          in
          let args =
            String.split_on_char ',' (String.sub line (l + 1) (r - l - 1))
            |> List.map String.trim
            |> List.filter (fun a -> a <> "")
          in
          defs := (name, `Gate (gate, args)) :: !defs
        | _ -> malformed "unreadable line: %s" line)
    (String.split_on_char '\n' text);
  let defs = Array.of_list (List.rev !defs) in
  let index = Hashtbl.create (Array.length defs) in
  Array.iteri
    (fun i (name, _) ->
      if Hashtbl.mem index name then malformed "duplicate definition of %s" name;
      Hashtbl.add index name i)
    defs;
  let idx name =
    match Hashtbl.find_opt index name with
    | Some i -> i
    | None -> malformed "undefined signal %s" name
  in
  let phases = ref 1 in
  let nodes =
    Array.map
      (fun (name, d) ->
        match d with
        | `Input -> Input
        | `Gate ("CONST0", []) -> Const false
        | `Gate ("CONST1", []) -> Const true
        | `Gate ("DFF", d :: rest) ->
          let init =
            match rest with
            | [] | [ "0" ] -> I0
            | [ "1" ] -> I1
            | [ ("X" | "x") ] -> Ix
            | _ -> malformed "bad DFF %s" name
          in
          Dff (idx d, init)
        | `Gate ("LATCH", [ d; p ]) ->
          let p = int_of_string p in
          phases := max !phases (p + 1);
          Latch (idx d, p)
        | `Gate (g, args) -> Gate (g, Array.of_list (List.map idx args)))
      defs
  in
  {
    names = Array.map fst defs;
    nodes;
    index;
    outputs = List.rev !outputs;
    phases = !phases;
  }

(* ----- simulation ----- *)

let apply gate (a : bool array) =
  let fold_xor () = Array.fold_left ( <> ) false a in
  match gate with
  | "AND" -> Array.for_all Fun.id a
  | "NAND" -> not (Array.for_all Fun.id a)
  | "OR" -> Array.exists Fun.id a
  | "NOR" -> not (Array.exists Fun.id a)
  | "XOR" -> fold_xor ()
  | "XNOR" -> not (fold_xor ())
  | ("NOT" | "BUFF" | "BUF") when Array.length a = 1 ->
    if gate = "NOT" then not a.(0) else a.(0)
  | "MUX" when Array.length a = 3 -> if a.(0) then a.(1) else a.(2)
  | g -> malformed "unsupported gate %s/%d" g (Array.length a)

(* One evaluation context (held state, inputs, phase) at a time; the
   stamp arrays make re-evaluation allocation-free between contexts. *)
type sim = {
  c : circuit;
  held : bool array;
  input : bool array;
  memo : bool array;
  stamp : int array;  (** = ctx: done; = -ctx: in progress *)
  mutable ctx : int;
  mutable phase : int;
}

let sim c =
  let n = Array.length c.nodes in
  {
    c;
    held = Array.make n false;
    input = Array.make n false;
    memo = Array.make n false;
    stamp = Array.make n 0;
    ctx = 0;
    phase = 0;
  }

let fresh s phase =
  s.ctx <- s.ctx + 1;
  s.phase <- phase

let rec value s v =
  if s.stamp.(v) = s.ctx then s.memo.(v)
  else if s.stamp.(v) = -s.ctx then
    malformed "combinational cycle through %s" s.c.names.(v)
  else begin
    s.stamp.(v) <- -s.ctx;
    let x =
      match s.c.nodes.(v) with
      | Input -> s.input.(v)
      | Const b -> b
      | Dff _ -> s.held.(v)
      | Latch (d, p) -> if p = s.phase then value s d else s.held.(v)
      | Gate (g, a) -> apply g (Array.map (value s) a)
    in
    s.stamp.(v) <- s.ctx;
    s.memo.(v) <- x;
    x
  end

(* value a state element holds entering the next step *)
let next s v =
  match s.c.nodes.(v) with
  | Dff (d, _) -> value s d
  | Latch _ -> value s v
  | Input | Const _ | Gate _ -> assert false

let signal c name =
  match Hashtbl.find_opt c.index name with
  | Some i -> i
  | None -> malformed "unknown target %s" name

(* ----- cones ----- *)

type cone = { state : int array; inputs : int array; size : int }

let cone c root =
  let seen = Array.make (Array.length c.nodes) false in
  let state = ref [] and inputs = ref [] and size = ref 0 in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      incr size;
      match c.nodes.(v) with
      | Input -> inputs := v :: !inputs
      | Const _ -> ()
      | Gate (_, a) -> Array.iter go a
      | Dff (d, _) | Latch (d, _) ->
        state := v :: !state;
        go d
    end
  in
  go root;
  {
    state = Array.of_list (List.rev !state);
    inputs = Array.of_list (List.rev !inputs);
    size = !size;
  }

(* ----- explicit-state search ----- *)

type truth = {
  reachable : int;  (** reachable (state, phase) pairs of the cone *)
  earliest_hit : int option;  (** first time the target can be 1 *)
  diameter : int;
      (** the target's diameter in the paper's convention: 1 + the
          latest first time at which one of its values (0 or 1) can
          first be observed — every valuation the target ever takes it
          takes within [diameter - 1] steps *)
}

type limits = { max_state : int; max_inputs : int; max_work : int }

(* [max_work] counts gate evaluations, so a search costs at most a few
   tens of milliseconds *)
let default_limits = { max_state = 20; max_inputs = 10; max_work = 200_000 }

(* a (state, phase) pair packed as an int: state bits low, phase high *)
let load s (k : cone) key =
  Array.iteri (fun i v -> s.held.(v) <- (key lsr i) land 1 = 1) k.state;
  key lsr Array.length k.state

let pack s (k : cone) phase =
  let key = ref (phase lsl Array.length k.state) in
  Array.iteri (fun i v -> if next s v then key := !key lor (1 lsl i)) k.state;
  !key

let set_inputs s (k : cone) a =
  Array.iteri (fun i v -> s.input.(v) <- (a lsr i) land 1 = 1) k.inputs

let init_keys c (k : cone) =
  (* enumerate the nondeterministic initial values *)
  Array.to_list k.state
  |> List.mapi (fun i v -> (i, v))
  |> List.fold_left
       (fun keys (i, v) ->
         let bit = 1 lsl i in
         match c.nodes.(v) with
         | Dff (_, I1) -> List.map (fun key -> key lor bit) keys
         | Dff (_, Ix) -> keys @ List.map (fun key -> key lor bit) keys
         | _ -> keys)
       [ 0 ]

let fits limits (k : cone) =
  Array.length k.state <= limits.max_state
  && Array.length k.inputs <= limits.max_inputs

(* [explore c target] is [None] when the cone is beyond [limits]. *)
let explore ?(limits = default_limits) c target =
  let root = signal c target in
  let k = cone c root in
  if not (fits limits k) then None
  else begin
    let s = sim c in
    let ninputs = 1 lsl Array.length k.inputs in
    let dist = Hashtbl.create 1024 in
    let first = [| None; None |] in
    let work = ref 0 in
    let frontier = ref (List.sort_uniq compare (init_keys c k)) in
    List.iter (fun key -> Hashtbl.replace dist key 0) !frontier;
    let t = ref 0 in
    (try
       while !frontier <> [] do
         let next_frontier = ref [] in
         List.iter
           (fun key ->
             let phase = load s k key in
             for a = 0 to ninputs - 1 do
               work := !work + k.size;
               if !work > limits.max_work then raise Exit;
               set_inputs s k a;
               fresh s phase;
               let v = if value s root then 1 else 0 in
               if first.(v) = None then first.(v) <- Some !t;
               let key' = pack s k ((phase + 1) mod c.phases) in
               if not (Hashtbl.mem dist key') then begin
                 Hashtbl.add dist key' (!t + 1);
                 next_frontier := key' :: !next_frontier
               end
             done)
           !frontier;
         frontier := !next_frontier;
         incr t
       done;
       let latest =
         Array.fold_left
           (fun acc f -> match f with Some t -> max acc t | None -> acc)
           0 first
       in
       Some
         {
           reachable = Hashtbl.length dist;
           earliest_hit = first.(1);
           diameter = latest + 1;
         }
     with Exit -> None)
  end

(* Can the target be 1 at exactly time [time]?  Layered forward
   images from the initial states; [None] beyond [limits]. *)
let hit_at ?(limits = default_limits) c target ~time =
  let root = signal c target in
  let k = cone c root in
  if not (fits limits k) then None
  else begin
    let s = sim c in
    let ninputs = 1 lsl Array.length k.inputs in
    let work = ref 0 in
    let layer = ref (List.sort_uniq compare (init_keys c k)) in
    try
      for _ = 1 to time do
        let nxt = Hashtbl.create 256 in
        List.iter
          (fun key ->
            let phase = load s k key in
            for a = 0 to ninputs - 1 do
              work := !work + k.size;
              if !work > limits.max_work then raise Exit;
              set_inputs s k a;
              fresh s phase;
              Hashtbl.replace nxt (pack s k ((phase + 1) mod c.phases)) ()
            done)
          !layer;
        layer := Hashtbl.fold (fun key () acc -> key :: acc) nxt []
      done;
      Some
        (List.exists
           (fun key ->
             let phase = load s k key in
             let hit = ref false in
             for a = 0 to ninputs - 1 do
               set_inputs s k a;
               fresh s phase;
               if value s root then hit := true
             done;
             !hit)
           !layer)
    with Exit -> None
  end

(* Simulate a counterexample: [inputs] gives (input name, time, value)
   (absent inputs read 0), [init_x] resolves nondeterministic initial
   values by state-element name (absent ones read 0).  [true] iff the
   target is 1 at time [depth]. *)
let replay c target ~depth ~inputs ~init_x =
  let root = signal c target in
  let s = sim c in
  Array.iteri
    (fun v n ->
      match n with
      | Dff (_, I1) -> s.held.(v) <- true
      | Dff (_, Ix) | Latch _ ->
        s.held.(v) <-
          Option.value ~default:false (List.assoc_opt c.names.(v) init_x)
      | Dff (_, I0) | Input | Const _ | Gate _ -> ())
    c.nodes;
  let states =
    List.filter
      (fun v -> match c.nodes.(v) with Dff _ | Latch _ -> true | _ -> false)
      (List.init (Array.length c.nodes) Fun.id)
  in
  let rec go t =
    Array.fill s.input 0 (Array.length s.input) false;
    List.iter
      (fun (name, time, b) ->
        if time = t then
          match Hashtbl.find_opt c.index name with
          | Some v -> s.input.(v) <- b
          | None -> ())
      inputs;
    fresh s (t mod c.phases);
    if t = depth then value s root
    else begin
      let held' = List.map (fun v -> (v, next s v)) states in
      List.iter (fun (v, b) -> s.held.(v) <- b) held';
      go (t + 1)
    end
  in
  go 0
