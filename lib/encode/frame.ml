module Net = Netlist.Net
module Lit = Netlist.Lit
module Solver = Backend

type t = {
  solver : Solver.solver;
  net : Net.t;
  vars : int array; (* netlist var -> solver var, -1 if not yet encoded *)
}

let create solver net =
  let const_var = Solver.new_var solver in
  Solver.add_clause solver [ Solver.neg_of const_var ];
  let vars = Array.make (Net.num_vars net) (-1) in
  vars.(0) <- const_var;
  { solver; net; vars }

let solver t = t.solver

let slit_of t l =
  let sv = t.vars.(Lit.var l) in
  if Lit.is_neg l then Solver.neg_of sv else Solver.pos sv

(* Encode the cone of [v] depth first on an explicit stack, in the
   order a recursive encoding would: fanin [a]'s cone, then [b]'s, then
   the AND's variable and its three clauses. *)
let var t v =
  if t.vars.(v) < 0 then begin
    let stack = Stack.create () in
    Stack.push v stack;
    while not (Stack.is_empty stack) do
      let u = Stack.top stack in
      match Net.node t.net u with
      | Net.Const -> assert false (* vars.(0) is set in [create] *)
      | Net.Input _ | Net.Reg _ | Net.Latch _ ->
        t.vars.(u) <- Solver.new_var t.solver;
        ignore (Stack.pop stack)
      | Net.And (a, b) ->
        if t.vars.(Lit.var a) < 0 then Stack.push (Lit.var a) stack
        else if t.vars.(Lit.var b) < 0 then Stack.push (Lit.var b) stack
        else begin
          let sa = slit_of t a and sb = slit_of t b in
          let sv = Solver.new_var t.solver in
          t.vars.(u) <- sv;
          let c = Solver.pos sv in
          Solver.add_clause t.solver [ Solver.negate c; sa ];
          Solver.add_clause t.solver [ Solver.negate c; sb ];
          Solver.add_clause t.solver [ c; Solver.negate sa; Solver.negate sb ];
          ignore (Stack.pop stack)
        end
    done
  end;
  t.vars.(v)

let lit t l =
  ignore (var t (Lit.var l));
  slit_of t l

let state_var t v =
  if not (Net.is_state t.net v) then invalid_arg "Frame.state_var";
  Solver.pos (var t v)

let chain solver net k =
  let frames = Array.init (k + 1) (fun _ -> create solver net) in
  for i = 0 to k - 1 do
    List.iter
      (fun r ->
        let next_i = lit frames.(i) (Net.reg_of net r).Net.next in
        let s_next = state_var frames.(i + 1) r in
        Solver.add_clause solver [ Solver.negate next_i; s_next ];
        Solver.add_clause solver [ next_i; Solver.negate s_next ])
      (Net.regs net)
  done;
  frames

let distinct solver a b xs =
  let diffs =
    List.map
      (fun x ->
        let a = a x in
        let b = b x in
        (* d -> (a xor b) *)
        let d = Solver.pos (Solver.new_var solver) in
        Solver.add_clause solver [ Solver.negate d; a; b ];
        Solver.add_clause solver
          [ Solver.negate d; Solver.negate a; Solver.negate b ];
        d)
      xs
  in
  Solver.add_clause solver diffs
