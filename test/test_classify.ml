module Net = Netlist.Net
module Lit = Netlist.Lit

let counts net = Core.Classify.netlist_counts net

let test_pipeline_is_ac () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let p = Workload.Gen.pipeline net ~name:"p" ~stages:5 ~data:a in
  Net.add_target net "t" p.Workload.Gen.out;
  let c = counts net in
  Helpers.check_int "all acyclic" 5 c.Core.Classify.ac;
  Helpers.check_int "no gc" 0 c.Core.Classify.gc

let test_counter_is_gc () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Workload.Gen.counter net ~name:"c" ~bits:4 ~enable:a in
  Net.add_target net "t" b.Workload.Gen.out;
  let c = counts net in
  Helpers.check_int "all general" 4 c.Core.Classify.gc;
  (* ripple-carry dependencies run strictly upward, so each bit is its
     own self-looping component, chained by dependency edges *)
  let a = Core.Classify.analyze net in
  Array.iter
    (fun c ->
      match c.Core.Classify.cls with
      | Core.Classify.GC 1 -> ()
      | _ -> Alcotest.fail "expected singleton GC components")
    a.Core.Classify.components;
  (* an LFSR's feedback makes one multi-register component *)
  let net2 = Net.create () in
  let l = Workload.Gen.lfsr net2 ~name:"l" ~bits:4 in
  Net.add_target net2 "t" l.Workload.Gen.out;
  let a2 = Core.Classify.analyze net2 in
  Helpers.check_int "lfsr is one component" 1
    (Array.length a2.Core.Classify.components);
  (match a2.Core.Classify.components.(0).Core.Classify.cls with
  | Core.Classify.GC 4 -> ()
  | _ -> Alcotest.fail "expected GC(4)")

let test_memory_is_mc () =
  let net = Net.create () in
  let a0 = Net.add_input net "a0" in
  let a1 = Net.add_input net "a1" in
  let d = Net.add_input net "d" in
  let w = Net.add_input net "w" in
  let m =
    Workload.Gen.memory net ~name:"m" ~rows:4 ~width:2 ~addr:[ a0; a1 ]
      ~data:[ d; Lit.neg d ] ~write:w
  in
  Net.add_target net "t" m.Workload.Gen.out;
  let analysis = Core.Classify.analyze net in
  let mcs =
    Array.to_list analysis.Core.Classify.components
    |> List.filter_map (fun c ->
           match c.Core.Classify.cls with
           | Core.Classify.MC rows -> Some (rows, List.length c.Core.Classify.regs)
           | _ -> None)
  in
  Helpers.check_bool "one MC with 4 rows and 8 cells" true (mcs = [ (4, 8) ])

let test_queue_is_qc () =
  let net = Net.create () in
  let push = Net.add_input net "push" in
  let d = Net.add_input net "d" in
  let q = Workload.Gen.queue net ~name:"q" ~depth:5 ~width:1 ~push ~data:[ d ] in
  Net.add_target net "t" q.Workload.Gen.out;
  let analysis = Core.Classify.analyze net in
  let qcs =
    Array.to_list analysis.Core.Classify.components
    |> List.filter_map (fun c ->
           match c.Core.Classify.cls with
           | Core.Classify.QC depth -> Some depth
           | _ -> None)
  in
  Helpers.check_bool "one QC of depth 5" true (qcs = [ 5 ])

let test_constants_are_cc () =
  let net = Net.create () in
  let r1 = Net.add_reg net ~init:Net.Init0 "r1" in
  Net.set_next net r1 Lit.false_;
  let r2 = Net.add_reg net ~init:Net.Init1 "r2" in
  Net.set_next net r2 r2;
  (* a register that settles only through the fixpoint: next = r1 | r2'
     where both are constants *)
  let r3 = Net.add_reg net ~init:Net.Init1 "r3" in
  Net.set_next net r3 (Net.add_or net r1 r2);
  Net.add_target net "t" r3;
  let c = counts net in
  Helpers.check_int "all constant" 3 c.Core.Classify.cc

let test_toggle_is_not_mc () =
  (* a counter bit loads a function of itself: must stay GC even
     though its next looks mux-like *)
  let net = Net.create () in
  let en = Net.add_input net "en" in
  let r = Net.add_reg net "r" in
  Net.set_next net r (Net.add_xor net r en);
  Net.add_target net "t" r;
  let c = counts net in
  Helpers.check_int "toggle is GC" 1 c.Core.Classify.gc;
  Helpers.check_int "not a table" 0 c.Core.Classify.table

let test_obscured_chain_reclassifies () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let c = Net.add_input net "c" in
  let d = Net.add_input net "d" in
  let chain =
    Workload.Gen.obscured_chain net ~name:"o" ~sel:(a, b, c) ~data:d ~len:4
  in
  Net.add_target net "t" chain.Workload.Gen.out;
  let before = counts net in
  Helpers.check_int "GC before COM" 4 before.Core.Classify.gc;
  let reduced, _ = Transform.Com.run net in
  let after = counts reduced.Transform.Rebuild.net in
  Helpers.check_int "table after COM" 4 after.Core.Classify.table;
  Helpers.check_int "no GC after COM" 0 after.Core.Classify.gc

let test_latch_classification () =
  (* classification works on latch netlists too: a latchified pipeline
     is acyclic *)
  let base = Net.create () in
  let a = Net.add_input base "a" in
  let p = Workload.Gen.pipeline base ~name:"p" ~stages:3 ~data:a in
  Net.add_target base "t" p.Workload.Gen.out;
  let latched = Workload.Gp.latchify base in
  let c = counts latched in
  Helpers.check_int "latch pairs acyclic" 6 c.Core.Classify.ac

let prop_counts_partition_registers =
  Helpers.qtest ~count:60 "classes partition the registers"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_structured seed in
      let c = counts net in
      c.Core.Classify.cc + c.Core.Classify.ac + c.Core.Classify.table
      + c.Core.Classify.gc
      = Net.num_regs net + Net.num_latches net)

let prop_every_reg_in_a_component =
  Helpers.qtest ~count:60 "analysis covers every register"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_structured seed in
      let a = Core.Classify.analyze net in
      List.for_all
        (fun v -> Hashtbl.mem a.Core.Classify.of_reg v)
        (Net.regs net))

(* The reference dependency relation: one full [Coi.combinational]
   walk of each state element's data edge, the state elements it marks
   listed in creation order (registers, then latches). *)
let reference_support net elems v =
  let data =
    match Net.node net v with
    | Net.Reg r -> r.Net.next
    | Net.Latch l -> l.Net.l_data
    | Net.Const | Net.Input _ | Net.And _ -> assert false
  in
  let cone = Netlist.Coi.combinational net [ data ] in
  List.filter (fun s -> cone.(s)) elems

(* [analyze ?within net] against the reference walk: every component's
   dependency edges (in order), and the SCC partition behind the AC
   and GC components (memory/queue clusters are unions of singleton
   SCCs, constants are outside the graph). *)
let agrees_with_reference ?within net =
  let a = Core.Classify.analyze ?within net in
  let within =
    Option.value within ~default:(Array.make (Net.num_vars net) true)
  in
  let elems =
    List.filter (fun v -> within.(v)) (Net.regs net @ Net.latches net)
  in
  let support = Hashtbl.create 64 in
  List.iter
    (fun v -> Hashtbl.replace support v (reference_support net elems v))
    elems;
  let comps = a.Core.Classify.components in
  let deps_agree =
    Array.for_all Fun.id
      (Array.mapi
         (fun id c ->
           let deps = ref [] in
           List.iter
             (fun v ->
               List.iter
                 (fun s ->
                   match Hashtbl.find_opt a.Core.Classify.of_reg s with
                   | Some d when d <> id && not (List.mem d !deps) ->
                     deps := d :: !deps
                   | Some _ | None -> ())
                 (Hashtbl.find support v))
             c.Core.Classify.regs;
           !deps = c.Core.Classify.deps)
         comps)
  in
  let constants = Core.Classify.constant_regs net within in
  let live =
    Array.of_list (List.filter (fun v -> not (Hashtbl.mem constants v)) elems)
  in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i v -> Hashtbl.replace index v i) live;
  let scc =
    Netlist.Scc.compute (Array.length live) (fun i ->
        List.filter_map (Hashtbl.find_opt index)
          (Hashtbl.find support live.(i)))
  in
  let cls_of v = comps.(Hashtbl.find a.Core.Classify.of_reg v).Core.Classify.cls in
  let is_table v =
    match cls_of v with
    | Core.Classify.MC _ | Core.Classify.QC _ -> true
    | Core.Classify.CC | Core.Classify.AC | Core.Classify.GC _ -> false
  in
  let expected =
    List.filter
      (function [ v ] -> not (is_table v) | _ -> true)
      (Array.to_list
         (Array.map
            (fun m -> Array.to_list (Array.map (fun i -> live.(i)) m))
            scc.Netlist.Scc.members))
  in
  let actual =
    List.filter_map
      (fun c ->
        match c.Core.Classify.cls with
        | Core.Classify.AC | Core.Classify.GC _ -> Some c.Core.Classify.regs
        | Core.Classify.CC | Core.Classify.MC _ | Core.Classify.QC _ -> None)
      (Array.to_list comps)
  in
  (* an acyclic component is exactly a singleton SCC without a self
     edge *)
  let acyclic_agree =
    Array.for_all
      (fun c ->
        match (c.Core.Classify.cls, c.Core.Classify.regs) with
        | Core.Classify.AC, [ v ] -> not (List.mem v (Hashtbl.find support v))
        | Core.Classify.AC, _ -> false
        | (Core.Classify.CC | Core.Classify.MC _ | Core.Classify.QC _
          | Core.Classify.GC _), _ ->
          true)
      comps
  in
  deps_agree && expected = actual && acyclic_agree

let prop_analysis_matches_reference_walk =
  Helpers.qtest ~count:80 "analysis matches one cone walk per register"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_structured seed in
      agrees_with_reference net
      && agrees_with_reference ~within:(Netlist.Coi.of_lits net [ t ]) net)

let prop_pipeline_counts_classify_final =
  Helpers.qtest ~count:30 "pipeline reg_counts classify the final netlist"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_structured seed in
      List.for_all
        (fun r ->
          r.Core.Pipeline.reg_counts = counts r.Core.Pipeline.final)
        [
          Core.Pipeline.original net;
          Core.Pipeline.com net;
          Core.Pipeline.com_ret_com net;
        ])

let suite =
  [
    Alcotest.test_case "pipeline -> AC" `Quick test_pipeline_is_ac;
    Alcotest.test_case "counter -> GC" `Quick test_counter_is_gc;
    Alcotest.test_case "memory -> MC" `Quick test_memory_is_mc;
    Alcotest.test_case "queue -> QC" `Quick test_queue_is_qc;
    Alcotest.test_case "constants -> CC" `Quick test_constants_are_cc;
    Alcotest.test_case "toggle is not a table cell" `Quick test_toggle_is_not_mc;
    Alcotest.test_case "obscured chain reclassifies" `Quick
      test_obscured_chain_reclassifies;
    Alcotest.test_case "latch netlists classify" `Quick test_latch_classification;
    prop_counts_partition_registers;
    prop_every_reg_in_a_component;
    prop_analysis_matches_reference_walk;
    prop_pipeline_counts_classify_final;
  ]
