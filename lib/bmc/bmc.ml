module Net = Netlist.Net
module Lit = Netlist.Lit
module Sim = Netlist.Sim
module Solver = Backend

type cex = {
  depth : int;
  inputs : (int * int * bool) list;
  init_x : (int * bool) list;
}

type outcome = Hit of cex | No_hit of int | Unknown of { after : int; why : string }

(* Everything needed to re-derive a No_hit answer independently: the
   solver's clausal proof plus, per refuted depth, the assumption
   literal whose refutation means "no hit at that time".  The goals
   are recorded here — outside the solver — so a fault that drops
   proof events cannot also drop the obligations. *)
type cert = {
  proof : Sat.Proof.t;
  mutable goals : (int * Solver.lit) list; (* (depth, target literal) *)
}

let new_cert () = { proof = Sat.Proof.create (); goals = [] }

let check_lit ?(from = 0) ?budget ?cert ?backend net target ~depth =
  let solver = Backend.solver_of backend in
  (* attach before [Unroll.create]: the unroller emits clauses *)
  Option.iter (fun c -> Solver.set_proof solver c.proof) cert;
  let unroll = Encode.Unroll.create solver net in
  let give_up ~why t =
    (* a backend that cannot run at all is a configuration condition,
       not an exhausted allowance *)
    if not (Backend.is_unavailable why) then Obs.Budget.note_exhausted "bmc";
    Unknown { after = t - 1; why }
  in
  let expired () =
    match budget with Some b -> Obs.Budget.expired b | None -> false
  in
  let rec search t =
    if t > depth then No_hit depth
    else if expired () then give_up ~why:Backend.budget_reason t
    else begin
      Obs.Stats.max_gauge "bmc.depth_reached" t;
      Obs.Heartbeat.set_phase (Printf.sprintf "bmc@%d" t);
      (* one trace span per unrolled depth, attributed with the
         per-depth solver work, so per-depth cost curves fall straight
         out of a trace *)
      let c0 = Solver.num_conflicts solver in
      let p0 = Solver.num_propagations solver in
      let tl, result =
        Obs.Trace.with_span "bmc.depth"
          ~args:[ ("depth", Obs.Trace.Int t) ]
          ~result:(fun (_, r) ->
            Obs.Trace.
              [
                ("result", String (Encode.Sat_obs.result_name r));
                ("conflicts", Int (Solver.num_conflicts solver - c0));
                ("propagations", Int (Solver.num_propagations solver - p0));
              ])
          (fun () ->
            (* the unrolling of this time step is part of its cost *)
            let tl = Encode.Unroll.lit_at unroll target t in
            ( tl,
              Encode.Sat_obs.solve ~assumptions:[ tl ] ?budget
                ~span:"bmc.solve" solver ))
      in
      match result with
      | Solver.Sat ->
        Obs.Stats.count "bmc.hits" 1;
        let inputs =
          List.map
            (fun (v, time, sl) -> (v, time, Solver.value solver sl))
            (Encode.Unroll.input_frames unroll ~upto:t)
        in
        Hit { depth = t; inputs; init_x = Encode.Unroll.init_x_assignments unroll }
      | Solver.Unsat ->
        Option.iter (fun c -> c.goals <- (t, tl) :: c.goals) cert;
        search (t + 1)
      | Solver.Unknown why -> give_up ~why t
    end
  in
  search from

let find_target net name =
  match List.assoc_opt name (Net.targets net) with
  | Some l -> l
  | None -> invalid_arg ("Bmc: unknown target " ^ name)

let check ?from ?budget ?cert ?backend net ~target ~depth =
  check_lit ?from ?budget ?cert ?backend net (find_target net target) ~depth

let replay net target cex =
  let init_table = Hashtbl.create 16 in
  List.iter (fun (v, b) -> Hashtbl.replace init_table v b) cex.init_x;
  let input_table = Hashtbl.create 64 in
  List.iter (fun (v, t, b) -> Hashtbl.replace input_table (v, t) b) cex.inputs;
  let init v =
    match Hashtbl.find_opt init_table v with
    | Some b -> Sim.value_of_bool b
    | None -> Sim.Vx
  in
  let s = Sim.create_with ~init net in
  let rec run t =
    Sim.step s (fun v ->
        match Hashtbl.find_opt input_table (v, t) with
        | Some b -> Sim.value_of_bool b
        | None -> Sim.V0);
    if t = cex.depth then Sim.value s target = Sim.V1 else run (t + 1)
  in
  run 0

let frames_of_cex net cex =
  let init_table = Hashtbl.create 16 in
  List.iter (fun (v, b) -> Hashtbl.replace init_table v b) cex.init_x;
  let input_table = Hashtbl.create 64 in
  List.iter (fun (v, t, b) -> Hashtbl.replace input_table (v, t) b) cex.inputs;
  let init v =
    match Hashtbl.find_opt init_table v with
    | Some b -> Sim.value_of_bool b
    | None -> Sim.Vx
  in
  let s = Sim.create_with ~init net in
  Array.init (cex.depth + 1) (fun t ->
      Sim.step s (fun v ->
          match Hashtbl.find_opt input_table (v, t) with
          | Some b -> Sim.value_of_bool b
          | None -> Sim.V0);
      Array.init (Net.num_vars net) (fun v -> Sim.value s (Lit.make v)))

let prove ?budget net ~target ~bound =
  if bound <= 0 then `Proved
  else
    match check ?budget net ~target ~depth:(bound - 1) with
    | No_hit _ -> `Proved
    | Hit cex -> `Cex cex
    | Unknown _ -> `Unknown
