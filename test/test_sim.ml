module Net = Netlist.Net
module Lit = Netlist.Lit
module Sim = Netlist.Sim
module Bsim = Netlist.Bsim

let test_three_valued_ops () =
  Helpers.check_bool "0 & x = 0" true (Sim.v_and Sim.V0 Sim.Vx = Sim.V0);
  Helpers.check_bool "1 & x = x" true (Sim.v_and Sim.V1 Sim.Vx = Sim.Vx);
  Helpers.check_bool "1 & 1 = 1" true (Sim.v_and Sim.V1 Sim.V1 = Sim.V1);
  Helpers.check_bool "~x = x" true (Sim.v_not Sim.Vx = Sim.Vx);
  Helpers.check_bool "~0 = 1" true (Sim.v_not Sim.V0 = Sim.V1)

let test_combinational () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let g = Net.add_xor net a b in
  let s = Sim.create net in
  Sim.step s (fun v ->
      if v = Lit.var a then Sim.V1 else if v = Lit.var b then Sim.V0 else Sim.Vx);
  Helpers.check_bool "1 xor 0" true (Sim.value s g = Sim.V1);
  Sim.step s (fun _ -> Sim.V1);
  Helpers.check_bool "1 xor 1" true (Sim.value s g = Sim.V0)

let test_register_delay () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r = Net.add_reg net ~init:Net.Init1 "r" in
  Net.set_next net r a;
  let s = Sim.create net in
  Sim.step s (fun _ -> Sim.V0);
  Helpers.check_bool "initial value visible at t=0" true (Sim.value s r = Sim.V1);
  Sim.step s (fun _ -> Sim.V1);
  Helpers.check_bool "t=1 sees input from t=0" true (Sim.value s r = Sim.V0);
  Sim.step s (fun _ -> Sim.V0);
  Helpers.check_bool "t=2 sees input from t=1" true (Sim.value s r = Sim.V1)

let test_counter_behaviour () =
  let net = Net.create () in
  let block = Workload.Gen.counter net ~name:"c" ~bits:3 ~enable:Lit.true_ in
  let s = Sim.create net in
  (* free-running 3-bit counter: all-ones first observed at t = 7 *)
  let hit = ref (-1) in
  for t = 0 to 8 do
    Sim.step s (fun _ -> Sim.V0);
    if !hit < 0 && Sim.value s block.Workload.Gen.out = Sim.V1 then hit := t
  done;
  Helpers.check_int "all-ones at t=7" 7 !hit

let test_x_propagation () =
  let net = Net.create () in
  let r = Net.add_reg net ~init:Net.Init_x "r" in
  Net.set_next net r r;
  let s = Sim.create net in
  Sim.step s (fun _ -> Sim.V0);
  Helpers.check_bool "X init stays X" true (Sim.value s r = Sim.Vx);
  (* but a resolved simulation picks a boolean *)
  let s' = Sim.create_resolved ~seed:1 net in
  Sim.step s' (fun _ -> Sim.V0);
  Helpers.check_bool "resolved init is binary" true (Sim.value s' r <> Sim.Vx)

let test_latch_transparency () =
  let net = Net.create ~phases:2 () in
  let a = Net.add_input net "a" in
  let l = Net.add_latch net ~init:Net.Init0 ~phase:0 "l" in
  Net.set_latch_data net l a;
  let s = Sim.create net in
  (* phase 0 at even times: transparent *)
  Sim.step s (fun _ -> Sim.V1);
  Helpers.check_bool "transparent at t=0" true (Sim.value s l = Sim.V1);
  (* phase 1 at odd times: holds the sampled value *)
  Sim.step s (fun _ -> Sim.V0);
  Helpers.check_bool "holds at t=1" true (Sim.value s l = Sim.V1);
  Sim.step s (fun _ -> Sim.V0);
  Helpers.check_bool "transparent again at t=2" true (Sim.value s l = Sim.V0)

let test_latch_chain () =
  (* master/slave pair behaves as a register at odd times *)
  let net = Net.create ~phases:2 () in
  let a = Net.add_input net "a" in
  let m = Net.add_latch net ~init:Net.Init0 ~phase:0 "m" in
  let sl = Net.add_latch net ~init:Net.Init0 ~phase:1 "s" in
  Net.set_latch_data net m a;
  Net.set_latch_data net sl m;
  let s = Sim.create net in
  Sim.step s (fun _ -> Sim.V1);
  Helpers.check_bool "slave holds init at t=0" true (Sim.value s sl = Sim.V0);
  Sim.step s (fun _ -> Sim.V0);
  Helpers.check_bool "slave publishes sample at t=1" true (Sim.value s sl = Sim.V1)

let prop_bsim_agrees_with_sim =
  (* each lane of the bit-parallel simulator follows netlist semantics:
     compare AND-consistency of every gate at each step *)
  Helpers.qtest ~count:50 "bit-parallel lanes consistent"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Workload.Rng.create seed in
      let net, _ = Helpers.rand_net rng ~inputs:3 ~regs:3 ~gates:10 in
      let s = Bsim.create ~seed net in
      let ok = ref true in
      for _ = 1 to 8 do
        Bsim.step_random s;
        Net.iter_nodes net (fun v node ->
            match node with
            | Net.And (a, b) ->
              let got = Bsim.word s (Lit.make v) in
              let expect = Int64.logand (Bsim.word s a) (Bsim.word s b) in
              if not (Int64.equal got expect) then ok := false
            | Net.Const | Net.Input _ | Net.Reg _ | Net.Latch _ -> ())
      done;
      !ok)

(* An independent reference for the flat kernel: the settle-loop
   simulator it replaced, which sweeps the whole netlist in vertex order
   until nothing changes, on boxed words.  It draws its random words in
   the same order (Init_x state in [create], then the inputs in
   [Net.inputs] order on each step), so the two agree bit for bit. *)
module Ref = struct
  type state = {
    net : Net.t;
    vals : int64 array;
    held : int64 array;
    rng : Random.State.t;
    mutable now : int;
  }

  let create ~seed net =
    let n = Net.num_vars net in
    let rng = Random.State.make [| seed; 0x5eed |] in
    let held = Array.make n 0L in
    Net.iter_nodes net (fun v node ->
        let init_word = function
          | Net.Init0 -> 0L
          | Net.Init1 -> -1L
          | Net.Init_x -> Random.State.int64 rng Int64.max_int
        in
        match node with
        | Net.Reg r -> held.(v) <- init_word r.Net.r_init
        | Net.Latch l -> held.(v) <- init_word l.Net.l_init
        | Net.Const | Net.Input _ | Net.And _ -> ());
    { net; vals = Array.make n 0L; held; rng; now = 0 }

  let lit_word vals l =
    let w = vals.(Lit.var l) in
    if Lit.is_neg l then Int64.lognot w else w

  let word s l = lit_word s.vals l

  let sweep s phase input_words =
    let changed = ref false in
    let set v x =
      if not (Int64.equal s.vals.(v) x) then begin
        s.vals.(v) <- x;
        changed := true
      end
    in
    Net.iter_nodes s.net (fun v node ->
        match node with
        | Net.Const -> set v 0L
        | Net.Input _ -> set v input_words.(v)
        | Net.And (a, b) ->
          set v (Int64.logand (lit_word s.vals a) (lit_word s.vals b))
        | Net.Reg _ -> set v s.held.(v)
        | Net.Latch l ->
          if l.Net.l_phase = phase then set v (lit_word s.vals l.Net.l_data)
          else set v s.held.(v));
    !changed

  let step_random s =
    let n = Net.num_vars s.net in
    let input_words = Array.make n 0L in
    List.iter
      (fun v ->
        input_words.(v) <-
          Int64.logxor
            (Random.State.int64 s.rng Int64.max_int)
            (Int64.shift_left (Random.State.int64 s.rng Int64.max_int) 1))
      (Net.inputs s.net);
    let phase = s.now mod Net.phases s.net in
    let rec settle budget =
      if sweep s phase input_words then
        if budget = 0 then failwith "Ref.step_random: latch cycle"
        else settle (budget - 1)
    in
    settle (Net.num_vars s.net + 2);
    Net.iter_nodes s.net (fun v node ->
        match node with
        | Net.Reg r -> s.held.(v) <- lit_word s.vals r.Net.next
        | Net.Latch _ -> s.held.(v) <- s.vals.(v)
        | Net.Const | Net.Input _ | Net.And _ -> ());
    s.now <- s.now + 1

  let signatures ~seed ~steps net =
    let steps = if steps mod 2 = 0 then steps + 1 else steps in
    let s = create ~seed net in
    let n = Net.num_vars net in
    let sigs = Array.make n 0L in
    for i = 1 to steps do
      step_random s;
      let r = 1 + (i mod 62) in
      for v = 0 to n - 1 do
        let w = s.vals.(v) in
        let rotated =
          Int64.logor (Int64.shift_left w r)
            (Int64.shift_right_logical w (64 - r))
        in
        sigs.(v) <- Int64.logxor sigs.(v) rotated
      done
    done;
    sigs
end

(* Does the kernel match the reference on [net]: every vertex's word,
   both polarities, after each of [steps] steps, and the signatures? *)
let agrees_with_ref ~seed ~steps net =
  let s = Bsim.create ~seed net and r = Ref.create ~seed net in
  let ok = ref true in
  for _ = 1 to steps do
    Bsim.step_random s;
    Ref.step_random r;
    for v = 0 to Net.num_vars net - 1 do
      List.iter
        (fun l ->
          if not (Int64.equal (Bsim.word s l) (Ref.word r l)) then ok := false)
        [ Lit.make v; Lit.make_neg v ]
    done
  done;
  !ok
  && Bsim.signatures ~seed ~steps net = Ref.signatures ~seed ~steps net

(* [Helpers.rand_net] plus one Init_x register read by a gate, so every
   case has a nondeterministic initial value to resolve. *)
let rand_net_with_x seed =
  let rng = Workload.Rng.create seed in
  let net, pool = Helpers.rand_net rng ~inputs:3 ~regs:3 ~gates:12 in
  let x = Net.add_reg net ~init:Net.Init_x "x" in
  Net.set_next net x (Workload.Rng.pick rng pool);
  let g = Net.add_xor net x (Workload.Rng.pick rng pool) in
  Net.add_output net "g" g;
  net

let prop_bsim_matches_reference =
  Helpers.qtest ~count:100 "flat kernel matches the settle-loop reference"
    QCheck.(int_bound 100000)
    (fun seed -> agrees_with_ref ~seed ~steps:9 (rand_net_with_x seed))

let prop_bsim_matches_reference_latches =
  Helpers.qtest ~count:100 "flat kernel matches the reference on latches"
    QCheck.(int_bound 100000)
    (fun seed ->
      let net = Workload.Gp.latchify (rand_net_with_x seed) in
      Net.num_latches net > 0 && agrees_with_ref ~seed ~steps:9 net)

let test_bsim_no_ands () =
  (* inputs and registers only: r0 delays a, r1 is stuck at 1, x is an
     Init_x register that holds its random word *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let _b = Net.add_input net "b" in
  let r0 = Net.add_reg net ~init:Net.Init0 "r0" in
  let r1 = Net.add_reg net ~init:Net.Init1 "r1" in
  let x = Net.add_reg net ~init:Net.Init_x "x" in
  Net.set_next net r0 a;
  Net.set_next net r1 r1;
  Net.set_next net x x;
  Helpers.check_int "no AND" 0 (Net.num_ands net);
  Helpers.check_bool "matches the reference" true
    (agrees_with_ref ~seed:7 ~steps:5 net);
  let s = Bsim.create ~seed:7 net in
  Bsim.step_random s;
  Helpers.check_bool "r0 starts at 0" true (Int64.equal (Bsim.word s r0) 0L);
  Helpers.check_bool "r1 starts at 1" true (Int64.equal (Bsim.word s r1) (-1L));
  let a0 = Bsim.word s a and x0 = Bsim.word s x in
  Bsim.step_random s;
  Helpers.check_bool "r0 delays a" true (Int64.equal (Bsim.word s r0) a0);
  Helpers.check_bool "x holds" true (Int64.equal (Bsim.word s x) x0);
  Helpers.check_bool "~r1 is 0" true (Int64.equal (Bsim.word s (Lit.neg r1)) 0L)

let prop_signature_complement =
  Helpers.qtest ~count:50 "signature of complement is complement"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Workload.Rng.create seed in
      let net, pool = Helpers.rand_net rng ~inputs:3 ~regs:2 ~gates:8 in
      let sigs = Bsim.signatures ~seed ~steps:9 net in
      (* sanity via canonical_signature on an arbitrary vertex *)
      List.for_all
        (fun l ->
          let s = sigs.(Lit.var l) in
          let c, flipped = Bsim.canonical_signature s in
          if flipped then Int64.equal c (Int64.lognot s) else Int64.equal c s)
        pool)

let test_run_helper () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r = Net.add_reg net "r" in
  Net.set_next net r a;
  let values = Sim.run net [ [ true ]; [ false ]; [ true ] ] r in
  Helpers.check_bool "delayed input stream" true
    (values = [ Sim.V0; Sim.V1; Sim.V0 ])

let suite =
  [
    Alcotest.test_case "three-valued operators" `Quick test_three_valued_ops;
    Alcotest.test_case "combinational evaluation" `Quick test_combinational;
    Alcotest.test_case "register delay" `Quick test_register_delay;
    Alcotest.test_case "counter behaviour" `Quick test_counter_behaviour;
    Alcotest.test_case "X propagation" `Quick test_x_propagation;
    Alcotest.test_case "latch transparency" `Quick test_latch_transparency;
    Alcotest.test_case "latch master/slave chain" `Quick test_latch_chain;
    Alcotest.test_case "Sim.run helper" `Quick test_run_helper;
    prop_bsim_agrees_with_sim;
    prop_signature_complement;
    Alcotest.test_case "bit-parallel net without ANDs" `Quick test_bsim_no_ands;
    prop_bsim_matches_reference;
    prop_bsim_matches_reference_latches;
  ]
