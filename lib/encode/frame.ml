module Net = Netlist.Net
module Lit = Netlist.Lit
module Solver = Backend

type t = {
  solver : Solver.solver;
  net : Net.t;
  vars : int array; (* netlist var -> solver var, -1 if not yet encoded *)
  const_var : int;
}

let create solver net =
  let const_var = Solver.new_var solver in
  Solver.add_clause solver [ Solver.neg_of const_var ];
  { solver; net; vars = Array.make (Net.num_vars net) (-1); const_var }

let solver t = t.solver

let rec var t v =
  if t.vars.(v) >= 0 then t.vars.(v)
  else begin
    match Net.node t.net v with
    | Net.Const -> t.const_var
    | Net.Input _ | Net.Reg _ | Net.Latch _ ->
      let sv = Solver.new_var t.solver in
      t.vars.(v) <- sv;
      sv
    | Net.And (a, b) ->
      let sa = slit t a in
      let sb = slit t b in
      let sv = Solver.new_var t.solver in
      t.vars.(v) <- sv;
      let c = Solver.pos sv in
      Solver.add_clause t.solver [ Solver.negate c; sa ];
      Solver.add_clause t.solver [ Solver.negate c; sb ];
      Solver.add_clause t.solver [ c; Solver.negate sa; Solver.negate sb ];
      sv
  end

and slit t l =
  let sv = var t (Lit.var l) in
  if Lit.is_neg l then Solver.neg_of sv else Solver.pos sv

let lit = slit

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
