type value = V0 | V1 | Vx

let v_not = function V0 -> V1 | V1 -> V0 | Vx -> Vx

let v_and a b =
  match (a, b) with
  | V0, _ | _, V0 -> V0
  | V1, V1 -> V1
  | Vx, (V1 | Vx) | V1, Vx -> Vx

let value_of_bool b = if b then V1 else V0

type state = {
  net : Net.t;
  vals : value array;  (* stabilized value of each vertex this step *)
  held : value array;  (* state-element memory entering the step *)
  mutable now : int;
  mutable started : bool;
}

(* Deterministic splitmix-style hash for resolving Init_x values. *)
let mix seed v =
  let z = ref (seed + (v * 0x9e3779b9)) in
  z := (!z lxor (!z lsr 16)) * 0x85ebca6b land max_int;
  z := (!z lxor (!z lsr 13)) * 0xc2b2ae35 land max_int;
  !z land 1 = 1

let init_value resolve v = function
  | Net.Init0 -> V0
  | Net.Init1 -> V1
  | Net.Init_x -> resolve v

let make resolve net =
  let n = Net.num_vars net in
  let held = Array.make n Vx in
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.Reg r -> held.(v) <- init_value resolve v r.Net.r_init
      | Net.Latch l -> held.(v) <- init_value resolve v l.Net.l_init
      | Net.Const | Net.Input _ | Net.And _ -> ());
  { net; vals = Array.make n Vx; held; now = 0; started = false }

let create net = make (fun _ -> Vx) net

let create_resolved ~seed net =
  make (fun v -> value_of_bool (mix seed v)) net

let create_with ~init net = make init net

let time s = s.now

let lit_value vals l =
  let v = vals.(Lit.var l) in
  if Lit.is_neg l then v_not v else v

let value s l =
  if not s.started then invalid_arg "Sim.value: no step taken yet";
  lit_value s.vals l

(* One evaluation sweep; returns true if any value changed.  Registers
   and opaque latches read from [held]; transparent latches and ANDs
   read the current sweep values. *)
let sweep s phase input =
  let changed = ref false in
  let set v x =
    if s.vals.(v) <> x then begin
      s.vals.(v) <- x;
      changed := true
    end
  in
  Net.iter_nodes s.net (fun v node ->
      match node with
      | Net.Const -> set v V0
      | Net.Input _ -> set v (input v)
      | Net.And (a, b) -> set v (v_and (lit_value s.vals a) (lit_value s.vals b))
      | Net.Reg _ -> set v s.held.(v)
      | Net.Latch l ->
        if l.Net.l_phase = phase then set v (lit_value s.vals l.Net.l_data)
        else set v s.held.(v));
  !changed

let step s input =
  let phase = s.now mod Net.phases s.net in
  let rec settle budget =
    if sweep s phase input then
      if budget = 0 then
        failwith "Sim.step: combinational cycle through transparent latches"
      else settle (budget - 1)
  in
  settle (Net.num_vars s.net + 2);
  (* Latch the end-of-step values into state-element memory. *)
  Net.iter_nodes s.net (fun v node ->
      match node with
      | Net.Reg r -> s.held.(v) <- lit_value s.vals r.Net.next
      | Net.Latch _ -> s.held.(v) <- s.vals.(v)
      | Net.Const | Net.Input _ | Net.And _ -> ());
  s.now <- s.now + 1;
  s.started <- true

let step_bools s bits =
  let table = Hashtbl.create 16 in
  let rec pair vars bs =
    match (vars, bs) with
    | v :: vars', b :: bs' ->
      Hashtbl.replace table v (value_of_bool b);
      pair vars' bs'
    | _, [] | [], _ -> ()
  in
  pair (Net.inputs s.net) bits;
  step s (fun v -> Option.value (Hashtbl.find_opt table v) ~default:V0)

let run net vectors l =
  let s = create net in
  List.map
    (fun bits ->
      step_bools s bits;
      value s l)
    vectors
