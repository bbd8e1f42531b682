module Net = Netlist.Net
module Lit = Netlist.Lit
module Sim = Netlist.Sim
module Solver = Backend

(* The pivotal encode-layer property: constraining the unrolling's
   input (and Init_x) variables to concrete values and solving must
   reproduce exactly the simulator's trace. *)
let unroll_matches_sim seed =
  let rng = Workload.Rng.create seed in
  let net, pool = Helpers.rand_net rng ~inputs:3 ~regs:4 ~gates:10 in
  let probe = Workload.Rng.pick rng pool in
  let depth = 6 in
  let solver = Solver.create () in
  let unroll = Encode.Unroll.create solver net in
  (* force every input frame to a deterministic pseudo-random bit *)
  let bit v t = Hashtbl.hash (seed, v, t) land 1 = 1 in
  List.iter
    (fun v ->
      for t = 0 to depth do
        let l = Encode.Unroll.lit_at unroll (Lit.make v) t in
        Solver.add_clause solver [ (if bit v t then l else Solver.negate l) ]
      done)
    (Net.inputs net);
  (* force nondeterministic initial values similarly *)
  ignore (Encode.Unroll.lit_at unroll probe depth);
  List.iter
    (fun r ->
      if (Net.reg_of net r).Net.r_init = Net.Init_x then begin
        let l = Encode.Unroll.lit_at unroll (Lit.make r) 0 in
        Solver.add_clause solver [ (if bit r (-1) then l else Solver.negate l) ]
      end)
    (Net.regs net);
  (match Solver.solve solver with
  | Solver.Unsat | Solver.Unknown _ ->
    Alcotest.fail "fully constrained unrolling must be SAT"
  | Solver.Sat -> ());
  (* simulate the same stimulus *)
  let init v = Sim.value_of_bool (bit v (-1)) in
  let s = Sim.create_with ~init net in
  let ok = ref true in
  for t = 0 to depth do
    Sim.step s (fun v -> Sim.value_of_bool (bit v t));
    let expected = Sim.value s probe in
    let got = Encode.Unroll.value_at unroll probe t in
    (match expected with
    | Sim.V0 -> if got then ok := false
    | Sim.V1 -> if not got then ok := false
    | Sim.Vx -> ())
  done;
  !ok

let prop_unroll_matches_sim =
  Helpers.qtest ~count:60 "unrolling agrees with the simulator"
    QCheck.(int_bound 1000000)
    unroll_matches_sim

let test_frame_is_combinational () =
  (* the single frame treats registers as free variables: a register
     output can take either value regardless of its init *)
  let net = Net.create () in
  let r = Net.add_reg net ~init:Net.Init0 "r" in
  Net.set_next net r Lit.false_;
  Net.add_target net "t" r;
  let solver = Solver.create () in
  let frame = Encode.Frame.create solver net in
  let l = Encode.Frame.lit frame r in
  Helpers.check_bool "reg free high" true
    (Solver.solve ~assumptions:[ l ] solver = Solver.Sat);
  Helpers.check_bool "reg free low" true
    (Solver.solve ~assumptions:[ Solver.negate l ] solver = Solver.Sat)

let test_frame_and_semantics () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let g = Net.add_and net a (Lit.neg b) in
  let solver = Solver.create () in
  let frame = Encode.Frame.create solver net in
  let la = Encode.Frame.lit frame a in
  let lb = Encode.Frame.lit frame b in
  let lg = Encode.Frame.lit frame g in
  Helpers.check_bool "g with a=1,b=0" true
    (Solver.solve ~assumptions:[ la; Solver.negate lb; lg ] solver = Solver.Sat);
  Helpers.check_bool "g impossible with b=1" true
    (Solver.solve ~assumptions:[ lb; lg ] solver = Solver.Unsat)

let test_frame_merge_hashes () =
  (* once y is merged onto x, an AND over y is the AND over x that is
     already encoded: same solver literal, no new variable *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let c = Net.add_input net "c" in
  let d = Net.add_input net "d" in
  let x = Net.add_and net (Net.add_and net a b) c in
  let y = Net.add_and net a (Net.add_and net b c) in
  let zx = Net.add_and net x d in
  let zy = Net.add_and net y d in
  let solver = Solver.create () in
  let frame = Encode.Frame.create solver net in
  let lx = Encode.Frame.lit frame x in
  let lzx = Encode.Frame.lit frame zx in
  ignore (Encode.Frame.lit frame y : Solver.lit);
  Encode.Frame.merge frame (Lit.var y) x;
  Helpers.check_bool "y reads as x" true
    (Encode.Frame.lit frame (Lit.neg y) = Solver.negate lx);
  let vars = Solver.num_vars solver in
  Helpers.check_bool "z over y is z over x" true (Encode.Frame.lit frame zy = lzx);
  Helpers.check_int "no new variable" vars (Solver.num_vars solver)

let test_unroll_latch_phases () =
  (* latch transparency in the unrolling mirrors Sim: a phase-0 latch
     is transparent at even times *)
  let net = Net.create ~phases:2 () in
  let a = Net.add_input net "a" in
  let l = Net.add_latch net ~init:Net.Init0 ~phase:0 "l" in
  Net.set_latch_data net l a;
  let solver = Solver.create () in
  let unroll = Encode.Unroll.create solver net in
  let at t = Encode.Unroll.lit_at unroll l t in
  let a_at t = Encode.Unroll.lit_at unroll a t in
  (* t=0 transparent: l = a@0; t=1 opaque: l = l@0 *)
  Helpers.check_bool "transparent" true
    (Solver.solve ~assumptions:[ a_at 0; Solver.negate (at 0) ] solver
    = Solver.Unsat);
  Helpers.check_bool "hold" true
    (Solver.solve ~assumptions:[ at 0; Solver.negate (at 1) ] solver
    = Solver.Unsat)

let test_init_x_consistency () =
  (* the same Init_x register at time 0 is a single free variable, not
     one per reference *)
  let net = Net.create () in
  let r = Net.add_reg net ~init:Net.Init_x "r" in
  Net.set_next net r r;
  let solver = Solver.create () in
  let unroll = Encode.Unroll.create solver net in
  let l0 = Encode.Unroll.lit_at unroll r 0 in
  let l0' = Encode.Unroll.lit_at unroll r 0 in
  Helpers.check_bool "same literal" true (l0 = l0');
  (* and the self-loop aliases later times to it *)
  let l3 = Encode.Unroll.lit_at unroll r 3 in
  Helpers.check_bool "aliased through the loop" true (l0 = l3)

let test_input_frames_sorted () =
  (* regression: input_frames/init_x_assignments folded over hashtables,
     so counterexample extraction order depended on hashing *)
  let net = Net.create () in
  let inputs = List.init 8 (fun i -> Net.add_input net (Printf.sprintf "i%d" i)) in
  let regs =
    List.init 3 (fun i -> Net.add_reg net ~init:Net.Init_x (Printf.sprintf "r%d" i))
  in
  let any = Net.add_or_list net (inputs @ regs) in
  List.iter (fun r -> Net.set_next net r any) regs;
  Net.add_target net "t" any;
  let solver = Solver.create () in
  let unroll = Encode.Unroll.create solver net in
  ignore (Encode.Unroll.lit_at unroll any 4);
  Helpers.check_bool "sat" true (Solver.solve solver = Solver.Sat);
  let frames = Encode.Unroll.input_frames unroll ~upto:4 in
  Helpers.check_bool "non-trivial frame list" true (List.length frames > 8);
  let keys = List.map (fun (v, t, _) -> (t, v)) frames in
  Helpers.check_bool "input frames sorted by (time, var)" true
    (List.sort compare keys = keys);
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | [ _ ] | [] -> true
  in
  Helpers.check_bool "no duplicate (time, var) pairs" true
    (strictly_increasing keys);
  let init_vars = List.map fst (Encode.Unroll.init_x_assignments unroll) in
  Helpers.check_int "all Init_x registers present" 3 (List.length init_vars);
  Helpers.check_bool "init_x sorted by var" true
    (List.sort compare init_vars = init_vars)

let suite =
  [
    Alcotest.test_case "input frames sorted" `Quick test_input_frames_sorted;
    Alcotest.test_case "frame is combinational" `Quick test_frame_is_combinational;
    Alcotest.test_case "frame AND semantics" `Quick test_frame_and_semantics;
    Alcotest.test_case "frame merge hashes over representatives" `Quick
      test_frame_merge_hashes;
    Alcotest.test_case "unroll latch phases" `Quick test_unroll_latch_phases;
    Alcotest.test_case "Init_x consistency" `Quick test_init_x_consistency;
    prop_unroll_matches_sim;
  ]
