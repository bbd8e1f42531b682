module Net = Netlist.Net
module Lit = Netlist.Lit

let test_counter_hit_depth () =
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:3 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  (match Bmc.check net ~target:"t" ~depth:10 with
  | Bmc.Hit cex ->
    Helpers.check_int "hit exactly at 7" 7 cex.Bmc.depth;
    Helpers.check_bool "replay confirms" true
      (Bmc.replay net (List.assoc "t" (Net.targets net)) cex)
  | Bmc.No_hit _ | Bmc.Unknown _ -> Alcotest.fail "counter must hit");
  match Bmc.check net ~target:"t" ~depth:6 with
  | Bmc.No_hit 6 -> ()
  | Bmc.No_hit _ | Bmc.Hit _ | Bmc.Unknown _ -> Alcotest.fail "no hit before 7"

let test_input_dependent_hit () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let p = Workload.Gen.pipeline net ~name:"p" ~stages:2 ~data:a in
  Net.add_target net "t" p.Workload.Gen.out;
  match Bmc.check net ~target:"t" ~depth:5 with
  | Bmc.Hit cex ->
    Helpers.check_int "needs 2 steps to fill" 2 cex.Bmc.depth;
    Helpers.check_bool "replay confirms" true
      (Bmc.replay net (List.assoc "t" (Net.targets net)) cex)
  | Bmc.No_hit _ | Bmc.Unknown _ -> Alcotest.fail "fillable pipeline must hit"

let test_x_init_hit () =
  (* an X-initialized self-loop can be 1 from the start *)
  let net = Net.create () in
  let r = Net.add_reg net ~init:Net.Init_x "r" in
  Net.set_next net r r;
  Net.add_target net "t" r;
  match Bmc.check net ~target:"t" ~depth:2 with
  | Bmc.Hit cex ->
    Helpers.check_int "hit at 0" 0 cex.Bmc.depth;
    Helpers.check_bool "init recorded" true
      (List.mem_assoc (Lit.var r) cex.Bmc.init_x);
    Helpers.check_bool "replay confirms" true
      (Bmc.replay net (List.assoc "t" (Net.targets net)) cex)
  | Bmc.No_hit _ | Bmc.Unknown _ -> Alcotest.fail "X register can hit"

let test_unreachable_proof () =
  (* mutually exclusive flags: the conjunction is unreachable; a
     diameter bound turns BMC into a proof *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r0 = Net.add_reg net ~init:Net.Init0 "r0" in
  let r1 = Net.add_reg net ~init:Net.Init1 "r1" in
  Net.set_next net r0 a;
  Net.set_next net r1 (Lit.neg a);
  Net.add_target net "t" (Net.add_and net r0 r1);
  let b = (Core.Bound.target_named net "t").Core.Bound.bound in
  Helpers.check_bool "bound finite" false (Core.Sat_bound.is_huge b);
  (match Bmc.prove net ~target:"t" ~bound:b with
  | `Proved -> ()
  | `Cex _ | `Unknown ->
    Alcotest.fail "conjunction of complementary flags unreachable");
  (* sanity: exact agrees *)
  let e = Option.get (Core.Exact.explore net (List.assoc "t" (Net.targets net))) in
  Helpers.check_bool "exact agrees" true (e.Core.Exact.earliest_hit = None)

let test_from_parameter () =
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:2 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  (* hits at 3 and (wrapping) at 7 *)
  match Bmc.check ~from:4 net ~target:"t" ~depth:10 with
  | Bmc.Hit cex -> Helpers.check_int "second hit at 7" 7 cex.Bmc.depth
  | Bmc.No_hit _ | Bmc.Unknown _ -> Alcotest.fail "wrapping counter must hit again"

let test_unknown_target () =
  let net = Net.create () in
  Alcotest.check_raises "unknown target" (Invalid_argument "Bmc: unknown target zz")
    (fun () -> ignore (Bmc.check net ~target:"zz" ~depth:1))

let prop_bmc_agrees_with_exact =
  Helpers.qtest ~count:50 "BMC and explicit search agree on earliest hits"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:3 ~regs:4 ~gates:10 in
      match Core.Exact.explore net t with
      | None -> true
      | Some e -> (
        let depth = 12 in
        match (Bmc.check_lit net t ~depth, e.Core.Exact.earliest_hit) with
        | Bmc.Hit cex, Some hit -> cex.Bmc.depth = hit && Bmc.replay net t cex
        | Bmc.No_hit _, Some hit -> hit > depth
        | Bmc.No_hit _, None -> true
        | Bmc.Hit _, None -> false
        | Bmc.Unknown _, _ -> false (* no budget: Unknown impossible *)))

let prop_cex_replays =
  Helpers.qtest ~count:50 "every counterexample replays on the simulator"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_structured seed in
      match Bmc.check_lit net t ~depth:8 with
      | Bmc.Hit cex -> Bmc.replay net t cex
      | Bmc.No_hit _ -> true
      | Bmc.Unknown _ -> false)

let test_frames_agree_with_replay () =
  (* frames_of_cex and replay are two readings of the same simulation:
     the captured frames must show the target miss at every step
     before [depth] (BMC reports the first hit) and the hit at
     [depth], exactly when replay succeeds *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r = Net.add_reg net ~init:Net.Init0 "r" in
  Net.set_next net r a;
  Net.add_target net "t" r;
  let t = List.assoc "t" (Net.targets net) in
  match Bmc.check net ~target:"t" ~depth:4 with
  | Bmc.Hit cex ->
    Helpers.check_bool "cex replays" true (Bmc.replay net t cex);
    let frames = Bmc.frames_of_cex net cex in
    Helpers.check_int "one frame per step" (cex.Bmc.depth + 1)
      (Array.length frames);
    let hit_at step =
      frames.(step).(Lit.var t)
      = (if Lit.is_neg t then Netlist.Sim.V0 else Netlist.Sim.V1)
    in
    for step = 0 to cex.Bmc.depth - 1 do
      Helpers.check_bool
        (Printf.sprintf "no hit in frame %d" step)
        false (hit_at step)
    done;
    Helpers.check_bool "hit in the final frame" true (hit_at cex.Bmc.depth)
  | Bmc.No_hit _ | Bmc.Unknown _ -> Alcotest.fail "expected a hit"

let test_per_layer_rows () =
  (* BMC leaves one aggregate row however deep it searches; the
     per-depth cost lives on the trace's bmc.depth events *)
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:3 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  let path = Filename.temp_file "diambound_bmc" ".trace.jsonl" in
  let events =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Obs.Stats.reset ();
        Obs.Trace.start path;
        (match Bmc.check net ~target:"t" ~depth:10 with
        | Bmc.Hit _ -> ()
        | Bmc.No_hit _ | Bmc.Unknown _ -> Alcotest.fail "counter must hit");
        Obs.Trace.stop ();
        Obs.Trace.read_file path)
  in
  let spans = (Obs.Stats.snapshot ()).Obs.Stats.spans in
  (match List.assoc_opt "bmc.solve" spans with
  | Some row -> Helpers.check_int "one solve per depth 0..7" 8 row.Obs.Stats.calls
  | None -> Alcotest.fail "no bmc.solve row");
  Helpers.check_bool "no per-depth aggregate rows" false
    (List.exists
       (fun (name, _) ->
         String.length name > 15 && String.sub name 0 15 = "bmc.solve.depth")
       spans);
  let depths =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if e.Obs.Trace.name <> "bmc.depth" then None
        else
          match List.assoc_opt "depth" e.Obs.Trace.args with
          | Some (Obs.Trace.Int d) -> Some d
          | _ -> Alcotest.fail "bmc.depth event without a depth")
      events
  in
  Helpers.check Alcotest.(list int) "one bmc.depth event per depth"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ] depths

let suite =
  [
    Alcotest.test_case "counter hit depth" `Quick test_counter_hit_depth;
    Alcotest.test_case "input-dependent hit" `Quick test_input_dependent_hit;
    Alcotest.test_case "X-init hit" `Quick test_x_init_hit;
    Alcotest.test_case "unreachable proof" `Quick test_unreachable_proof;
    Alcotest.test_case "from parameter" `Quick test_from_parameter;
    Alcotest.test_case "unknown target" `Quick test_unknown_target;
    Alcotest.test_case "frames agree with replay" `Quick
      test_frames_agree_with_replay;
    Alcotest.test_case "per-layer rows, per-depth trace" `Quick
      test_per_layer_rows;
    prop_bmc_agrees_with_exact;
    prop_cex_replays;
  ]
