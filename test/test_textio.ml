module Net = Netlist.Net
module Lit = Netlist.Lit
module Sim = Netlist.Sim

let sample_bench =
  "# sample\n\
   INPUT(a)\n\
   INPUT(b)\n\
   OUTPUT(z)\n\
   g1 = AND(a, b)\n\
   g2 = NOT(g1)\n\
   r = DFF(g2, 1)\n\
   z = OR(r, g1)\n"

let test_parse_basics () =
  let net = Textio.Bench_io.parse sample_bench in
  Helpers.check_int "inputs" 2 (Net.num_inputs net);
  Helpers.check_int "regs" 1 (Net.num_regs net);
  Helpers.check_int "targets from outputs" 1 (List.length (Net.targets net));
  let r = List.find (fun v -> Net.is_reg net v) (Net.regs net) in
  Helpers.check_bool "init preserved" true ((Net.reg_of net r).Net.r_init = Net.Init1)

let test_parse_multi_arity () =
  let net =
    Textio.Bench_io.parse
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\nz = NAND(a, b, c)\n"
  in
  (* NAND3 = ~(a & b & c): check by simulation *)
  let z = List.assoc "z" (Net.outputs net) in
  let got = Sim.run net [ [ true; true; true ]; [ true; false; true ] ] z in
  Helpers.check_bool "nand3 semantics" true (got = [ Sim.V0; Sim.V1 ])

let test_parse_forward_reference () =
  let net =
    Textio.Bench_io.parse
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(later, a)\nlater = NOT(b)\n"
  in
  Helpers.check_int "one and" 1 (Net.num_ands net)

let test_parse_sequential_cycle () =
  let net =
    Textio.Bench_io.parse
      "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = XOR(q, a)\n"
  in
  Helpers.check_int "reg" 1 (Net.num_regs net);
  (* toggles whenever a is high *)
  let q = List.assoc "q" (Net.outputs net) in
  let got = Sim.run net [ [ true ]; [ true ]; [ false ] ] q in
  Helpers.check_bool "toggle" true (got = [ Sim.V0; Sim.V1; Sim.V0 ])

(* every malformed input raises Parse_error carrying the 1-based line
   of the offending declaration and a fixed message — the CLI renders
   it "file:line: msg", so both are pinned *)
let expect_parse_error ~line:expected ~msg:expected_msg text =
  match Textio.Bench_io.parse text with
  | exception Textio.Parse_error { line; msg } ->
    Alcotest.(check int) (Printf.sprintf "line of %S" msg) expected line;
    Alcotest.(check string) (Printf.sprintf "message of %S" text) expected_msg msg
  | _ -> Alcotest.fail "expected parse failure"

let test_parse_errors () =
  expect_parse_error ~line:1 ~msg:"undefined signal a" "z = AND(a)\nOUTPUT(z)\n";
  expect_parse_error ~line:2 ~msg:"unknown gate type FROB"
    "INPUT(a)\nz = FROB(a)\nOUTPUT(z)\n";
  (* gate names are case-insensitive and reported upper-cased *)
  expect_parse_error ~line:2 ~msg:"unknown gate type FROB"
    "INPUT(a)\nz = frob(a)\nOUTPUT(z)\n";
  expect_parse_error ~line:2 ~msg:"bad arity for NOT at z"
    "INPUT(a)\nz = NOT(a, a)\nOUTPUT(z)\n";
  expect_parse_error ~line:2 ~msg:"combinational cycle through z"
    "INPUT(a)\nz = AND(z, a)\nOUTPUT(z)\n";
  (* a 3-gate cycle is blamed where it closes: y's line reads z *)
  expect_parse_error ~line:5 ~msg:"combinational cycle through z"
    "INPUT(a)\nOUTPUT(z)\nz = AND(x, a)\nx = NOT(y)\ny = OR(z, a)\n"

let test_parse_error_corpus () =
  expect_parse_error ~line:2 ~msg:"expected '=' in: z AND(a)"
    "INPUT(a)\nz AND(a)\nOUTPUT(z)\n";
  expect_parse_error ~line:2 ~msg:"malformed right-hand side: AND a"
    "INPUT(a)\nz = AND a\nOUTPUT(z)\n";
  (* duplicate definitions: the second one is blamed *)
  expect_parse_error ~line:3 ~msg:"duplicate definition of z"
    "INPUT(a)\nz = NOT(a)\nz = BUFF(a)\nOUTPUT(z)\n";
  expect_parse_error ~line:2 ~msg:"duplicate definition of a" "INPUT(a)\nINPUT(a)\n";
  expect_parse_error ~line:2 ~msg:"bad initial value 2"
    "INPUT(a)\nq = DFF(a, 2)\nOUTPUT(q)\n";
  expect_parse_error ~line:2 ~msg:"DFF takes (data[, init])"
    "INPUT(a)\nq = DFF(a, 0, 1)\nOUTPUT(q)\n";
  (* a DFF without operands is not a DFF at all *)
  expect_parse_error ~line:1 ~msg:"unknown gate type DFF" "q = DFF()\nOUTPUT(q)\n";
  expect_parse_error ~line:2 ~msg:"LATCH takes (data, phase)"
    "INPUT(a)\nq = LATCH(a)\nOUTPUT(q)\n";
  expect_parse_error ~line:2 ~msg:"bad LATCH phase x"
    "INPUT(a)\nq = LATCH(a, x)\nOUTPUT(q)\n";
  (* comments and blank lines keep their line numbers *)
  expect_parse_error ~line:4 ~msg:"unknown gate type FROB"
    "# header\nINPUT(a)\n\nz = FROB(a)\nOUTPUT(z)\n";
  (* undefined operands are blamed at the use line: an OUTPUT, a
     DFF's or a LATCH's data edge *)
  expect_parse_error ~line:2 ~msg:"undefined signal ghost" "INPUT(a)\nOUTPUT(ghost)\n";
  expect_parse_error ~line:3 ~msg:"undefined signal ghost"
    "INPUT(a)\nOUTPUT(q)\nq = DFF(ghost)\n";
  expect_parse_error ~line:1 ~msg:"undefined signal ghost" "m = LATCH(ghost, 0)\n";
  (* data edges are connected last declared first *)
  expect_parse_error ~line:2 ~msg:"undefined signal ghost2"
    "q1 = DFF(ghost1)\nq2 = DFF(ghost2)\nOUTPUT(q1)\n";
  (* which error wins: every line is read before anything is built,
     and state elements are built before the gates *)
  expect_parse_error ~line:2 ~msg:"expected '=' in: w AND"
    "z = AND(ghost)\nw AND\n";
  expect_parse_error ~line:2 ~msg:"bad initial value 7" "z = FROB(a)\nq = DFF(a, 7)\n";
  (* a declaration cut off at its parenthesis, and a negative latch
     phase, are parse errors too *)
  expect_parse_error ~line:2 ~msg:"malformed declaration: OUTPUT(" "INPUT(a)\nOUTPUT(\n";
  expect_parse_error ~line:1 ~msg:"malformed declaration: input(" "input(\n";
  expect_parse_error ~line:2 ~msg:"bad LATCH phase -1"
    "INPUT(a)\nq = LATCH(a, -1)\nOUTPUT(q)\n"

let test_latch_extension () =
  let net =
    Textio.Bench_io.parse
      "INPUT(a)\nOUTPUT(z)\nm = LATCH(a, 0)\nz = LATCH(m, 1)\n"
  in
  Helpers.check_int "latches" 2 (Net.num_latches net);
  Helpers.check_int "phases" 2 (Net.phases net)

let roundtrip net =
  Textio.Bench_io.parse (Textio.Bench_io.to_string net)

let test_bench_roundtrip_semantics () =
  let net, _ = Helpers.rand_net_with_target 42 ~inputs:3 ~regs:4 ~gates:12 in
  let back = roundtrip net in
  let t1 = List.assoc "t" (Net.targets net) in
  let t2 = List.assoc "t" (Net.targets back) in
  Helpers.check_bool "roundtrip preserves target semantics" true
    (Transform.Equiv.sim_equivalent net t1 back t2)

let prop_netfmt_roundtrip =
  Helpers.qtest ~count:100 "netfmt roundtrip is exact"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_net_with_target seed ~inputs:3 ~regs:3 ~gates:10 in
      let back = Textio.Netfmt.of_string (Textio.Netfmt.to_string net) in
      String.equal (Textio.Netfmt.to_string net) (Textio.Netfmt.to_string back))

let prop_bench_roundtrip_equiv =
  Helpers.qtest ~count:40 "bench roundtrip preserves semantics"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_net_with_target seed ~inputs:3 ~regs:3 ~gates:8 in
      let back = roundtrip net in
      let t1 = List.assoc "t" (Net.targets net) in
      let t2 = List.assoc "t" (Net.targets back) in
      Transform.Equiv.sim_equivalent ~steps:12 net t1 back t2)

(* write→parse→write fixpoint: the first write may rename (the
   uniquifier resolves collisions between declared names and generated
   ones), but the renaming must be stable — writing the parsed netlist
   again reproduces it byte for byte. *)
let bench_fixpoint net =
  let n2 = roundtrip net in
  let s2 = Textio.Bench_io.to_string n2 in
  let s3 = Textio.Bench_io.to_string (Textio.Bench_io.parse s2) in
  String.equal s2 s3

let prop_bench_fixpoint_random =
  Helpers.qtest ~count:60 "bench write fixpoint (random nets)"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_net_with_target seed ~inputs:3 ~regs:3 ~gates:10 in
      bench_fixpoint net)

let prop_bench_fixpoint_fuzz =
  Helpers.qtest ~count:30 "bench write fixpoint (fuzzer designs)"
    QCheck.(int_bound 200)
    (fun i -> bench_fixpoint (Workload.Fuzz.case ~seed:7 i).Workload.Fuzz.net)

(* adversarial declared names: inputs/outputs squatting on the
   writer's own namespaces ("n<i>" gate names, const0/const1) and an
   empty cone (a constant-false target) *)
let test_bench_nasty_names () =
  let net = Net.create () in
  let n1 = Net.add_input net "n1" in
  let n3 = Net.add_input net "n3" in
  (* an input squatting on the writer's constant name: it must be
     renamed on write (the sim check below therefore keeps it out of
     the live cone — stimulus is matched by input name) *)
  let c0 = Net.add_input net "const0" in
  let g = Net.add_and net n1 n3 in
  Net.add_target net "t" g;
  Net.add_output net "t" g;
  (* output aliasing an input under a colliding name *)
  Net.add_output net "n2" n1;
  (* a semantically-dead cone through the renamed input *)
  let dead = Net.add_and net c0 (Lit.neg c0) in
  Net.add_target net "dead" dead;
  Net.add_output net "dead" dead;
  (* entirely empty cone: a constant-false target *)
  Net.add_target net "empty" Lit.false_;
  Net.add_output net "empty" Lit.false_;
  Net.check net;
  let back = roundtrip net in
  Helpers.check_int "inputs survive" 3 (Net.num_inputs back);
  (* every OUTPUT re-parses as a target, so the n2 alias adds one *)
  Helpers.check_int "targets survive" 4 (List.length (Net.targets back));
  let t1 = List.assoc "t" (Net.targets net) in
  let t2 = List.assoc "t" (Net.targets back) in
  Helpers.check_bool "live target semantics" true
    (Transform.Equiv.sim_equivalent net t1 back t2);
  List.iter
    (fun name ->
      Helpers.check_bool (name ^ " target stays false") true
        (Transform.Equiv.sim_equivalent net Lit.false_ back
           (List.assoc name (Net.targets back))))
    [ "dead"; "empty" ];
  Helpers.check_bool "fixpoint" true (bench_fixpoint net)

let test_bench_max_arity_fixpoint () =
  (* wide gates exist only on the parse side (the writer emits 2-ary
     trees): one write normalizes, after which parse/write is stable *)
  let args = String.concat ", " (List.init 8 (fun i -> Printf.sprintf "a%d" i)) in
  let text =
    String.concat "\n"
      (List.init 8 (fun i -> Printf.sprintf "INPUT(a%d)" i)
      @ [ Printf.sprintf "z = NAND(%s)" args; "OUTPUT(z)"; "" ])
  in
  let net = Textio.Bench_io.parse text in
  Helpers.check_bool "fixpoint" true (bench_fixpoint net);
  let back = roundtrip net in
  let z1 = List.assoc "z" (Net.targets net) in
  let z2 = List.assoc "z" (Net.targets back) in
  Helpers.check_bool "nand8 semantics" true
    (Transform.Equiv.sim_equivalent net z1 back z2)

(* vertex-order guard over the Table 1/2 designs: once written, a
   design re-parses into a netlist that writes back to the same bytes,
   so the parser creates vertices in the order the writer laid them
   out *)
let test_designs_write_stable () =
  List.iter
    (fun (name, build) ->
      Helpers.check_bool (name ^ " write/parse/write") true
        (bench_fixpoint (build name)))
    (List.map (fun n -> (n, Workload.Iscas.by_name)) Workload.Iscas.names
    @ List.map (fun n -> (n, Workload.Gp.by_name)) Workload.Gp.names)

let suite =
  [
    Alcotest.test_case "parse basics" `Quick test_parse_basics;
    Alcotest.test_case "multi-arity gates" `Quick test_parse_multi_arity;
    Alcotest.test_case "forward references" `Quick test_parse_forward_reference;
    Alcotest.test_case "sequential cycles" `Quick test_parse_sequential_cycle;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse error corpus" `Quick test_parse_error_corpus;
    Alcotest.test_case "latch extension" `Quick test_latch_extension;
    Alcotest.test_case "bench roundtrip" `Quick test_bench_roundtrip_semantics;
    prop_netfmt_roundtrip;
    prop_bench_roundtrip_equiv;
    prop_bench_fixpoint_random;
    prop_bench_fixpoint_fuzz;
    Alcotest.test_case "nasty declared names" `Quick test_bench_nasty_names;
    Alcotest.test_case "max-arity fixpoint" `Quick test_bench_max_arity_fixpoint;
    Alcotest.test_case "designs write stable" `Quick test_designs_write_stable;
  ]
