module Net = Netlist.Net
module Lit = Netlist.Lit
module Solver = Backend

type t = {
  solver : Solver.solver;
  net : Net.t;
  table : (int * int, Solver.lit) Hashtbl.t; (* (var, time) -> solver lit *)
  inputs : (int * int, Solver.lit) Hashtbl.t;
  init_x : (int, Solver.lit) Hashtbl.t; (* state var -> free init literal *)
  fls : Solver.lit;
  c_vars : Obs.Stats.counter;
  c_clauses : Obs.Stats.counter;
}

let emitted t ~vars ~clauses =
  Obs.Stats.add t.c_vars vars;
  Obs.Stats.add t.c_clauses clauses

let create solver net =
  let v = Solver.new_var solver in
  (* [pos v] is the constant-false literal: assert its negation *)
  let fls = Solver.pos v in
  Solver.add_clause solver [ Solver.neg_of v ];
  let t =
    {
      solver;
      net;
      table = Hashtbl.create 4096;
      inputs = Hashtbl.create 256;
      init_x = Hashtbl.create 16;
      fls;
      c_vars = Obs.Stats.counter "encode.vars";
      c_clauses = Obs.Stats.counter "encode.clauses";
    }
  in
  emitted t ~vars:1 ~clauses:1;
  t

let solver t = t.solver
let net t = t.net
let false_lit t = t.fls

let apply_sign l sl = if Lit.is_neg l then Solver.negate sl else sl

let rec var_at t v time =
  match Hashtbl.find_opt t.table (v, time) with
  | Some sl -> sl
  | None ->
    let sl =
      match Net.node t.net v with
      | Net.Const -> t.fls
      | Net.Input _ ->
        let sv = Solver.pos (Solver.new_var t.solver) in
        Hashtbl.replace t.inputs (v, time) sv;
        emitted t ~vars:1 ~clauses:0;
        sv
      | Net.And (a, b) ->
        let sa = lit_at t a time in
        let sb = lit_at t b time in
        let c = Solver.pos (Solver.new_var t.solver) in
        Solver.add_clause t.solver [ Solver.negate c; sa ];
        Solver.add_clause t.solver [ Solver.negate c; sb ];
        Solver.add_clause t.solver [ c; Solver.negate sa; Solver.negate sb ];
        emitted t ~vars:1 ~clauses:3;
        c
      | Net.Reg r ->
        if time = 0 then init_lit t v r.Net.r_init
        else lit_at t r.Net.next (time - 1)
      | Net.Latch l ->
        if time mod Net.phases t.net = l.Net.l_phase then
          lit_at t l.Net.l_data time
        else if time = 0 then init_lit t v l.Net.l_init
        else var_at t v (time - 1)
    in
    Hashtbl.replace t.table (v, time) sl;
    sl

and lit_at t l time = apply_sign l (var_at t (Lit.var l) time)

and init_lit t v = function
  | Net.Init0 -> t.fls
  | Net.Init1 -> Solver.negate t.fls
  | Net.Init_x ->
    let sl = Solver.pos (Solver.new_var t.solver) in
    Hashtbl.replace t.init_x v sl;
    emitted t ~vars:1 ~clauses:0;
    sl

let value_at t l time = Solver.value t.solver (lit_at t l time)

(* Hashtable folds visit entries in bucket order, which depends on
   table history; sort so counterexample rendering, VCD dumps and
   golden tests are stable across runs. *)
let init_x_assignments t =
  Hashtbl.fold (fun v sl acc -> (v, Solver.value t.solver sl) :: acc) t.init_x []
  |> List.sort (fun (v1, _) (v2, _) -> compare v1 v2)

let input_frames t ~upto =
  Hashtbl.fold
    (fun (v, time) sl acc -> if time <= upto then (v, time, sl) :: acc else acc)
    t.inputs []
  |> List.sort (fun (v1, t1, _) (v2, t2, _) -> compare (t1, v1) (t2, v2))

