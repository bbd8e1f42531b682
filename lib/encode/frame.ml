module Net = Netlist.Net
module Lit = Netlist.Lit
module Solver = Backend

type t = {
  solver : Solver.solver;
  net : Net.t;
  lits : int array; (* netlist var -> solver literal, -1 if not yet encoded *)
  strash : (Solver.lit * Solver.lit, Solver.lit) Hashtbl.t;
      (* solver-literal fanin pair -> AND literal *)
}

let create solver net =
  let const_var = Solver.new_var solver in
  Solver.add_clause solver [ Solver.neg_of const_var ];
  let lits = Array.make (Net.num_vars net) (-1) in
  lits.(0) <- Solver.pos const_var;
  { solver; net; lits; strash = Hashtbl.create 64 }

let solver t = t.solver

let slit_of t l =
  let sl = t.lits.(Lit.var l) in
  if Lit.is_neg l then Solver.negate sl else sl

let ordered sa sb = if sa <= sb then (sa, sb) else (sb, sa)

(* The solver literal of an AND over solver literals [sa] and [sb],
   folded like [Net.add_and] and looked up in the strash before a fresh
   variable with its three clauses is made.  [Net.add_and] has already
   folded and hashed the netlist's ANDs, so until a merge aliases two
   vertices neither the folds nor the lookup fire. *)
let encode_and t sa sb =
  let false_ = t.lits.(0) in
  let true_ = Solver.negate false_ in
  if sa = false_ || sb = false_ || sa = Solver.negate sb then false_
  else if sa = true_ || sa = sb then sb
  else if sb = true_ then sa
  else begin
    let key = ordered sa sb in
    match Hashtbl.find_opt t.strash key with
    | Some c -> c
    | None ->
      (* the clauses keep the fanins' order, which the solver's search
         follows *)
      let c = Solver.pos (Solver.new_var t.solver) in
      Solver.add_clause t.solver [ Solver.negate c; sa ];
      Solver.add_clause t.solver [ Solver.negate c; sb ];
      Solver.add_clause t.solver [ c; Solver.negate sa; Solver.negate sb ];
      Hashtbl.add t.strash key c;
      c
  end

(* Encode the cone of [v] depth first on an explicit stack, in the
   order a recursive encoding would: fanin [a]'s cone, then [b]'s, then
   the AND's literal. *)
let encode t v =
  if t.lits.(v) < 0 then begin
    let stack = Stack.create () in
    Stack.push v stack;
    while not (Stack.is_empty stack) do
      let u = Stack.top stack in
      match Net.node t.net u with
      | Net.Const -> assert false (* lits.(0) is set in [create] *)
      | Net.Input _ | Net.Reg _ | Net.Latch _ ->
        t.lits.(u) <- Solver.pos (Solver.new_var t.solver);
        ignore (Stack.pop stack)
      | Net.And (a, b) ->
        if t.lits.(Lit.var a) < 0 then Stack.push (Lit.var a) stack
        else if t.lits.(Lit.var b) < 0 then Stack.push (Lit.var b) stack
        else begin
          t.lits.(u) <- encode_and t (slit_of t a) (slit_of t b);
          ignore (Stack.pop stack)
        end
    done
  end

let lit t l =
  encode t (Lit.var l);
  slit_of t l

let merge t v l =
  let a, b =
    match Net.node t.net v with
    | Net.And (a, b) -> (a, b)
    | Net.Const | Net.Input _ | Net.Reg _ | Net.Latch _ ->
      invalid_arg "Frame.merge"
  in
  encode t v;
  t.lits.(v) <- lit t l;
  (* a later AND over [v]'s fanins is [l] itself *)
  Hashtbl.replace t.strash (ordered (slit_of t a) (slit_of t b)) t.lits.(v)

let state_var t v =
  if not (Net.is_state t.net v) then invalid_arg "Frame.state_var";
  encode t v;
  t.lits.(v)

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
