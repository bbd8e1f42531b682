(* A 100k-deep forward-referenced AND chain: g0 reads g1, g1 reads g2,
   ..., so building g0 first descends through every gate. *)

module Net = Netlist.Net
module Lit = Netlist.Lit
module Coi = Netlist.Coi
module Bsim = Netlist.Bsim

let depth = 100_000

let chain () =
  let b = Buffer.create (depth * 24) in
  Buffer.add_string b "INPUT(a)\nINPUT(b)\nOUTPUT(g0)\n";
  for i = 0 to depth - 2 do
    Printf.bprintf b "g%d = AND(g%d, a)\n" i (i + 1)
  done;
  Printf.bprintf b "g%d = NOT(b)\n" (depth - 1);
  Buffer.contents b

let check what ok =
  if not ok then begin
    prerr_endline ("deep: " ^ what);
    exit 1
  end

let () =
  let net = Textio.Bench_io.parse (chain ()) in
  check "one AND per link" (Net.num_ands net = depth - 1);
  let g0 = List.assoc "g0" (Net.outputs net) in
  (* the inputs come first; the chain is then built bottom-up *)
  check "g0 is the last vertex" (Lit.var g0 = Net.num_vars net - 1);
  let cone = Coi.walk (Coi.walker net) ~through_state:true [ g0 ] in
  check "the cone reads both inputs"
    (List.sort compare (Coi.leaves cone) = List.sort compare (Net.inputs net))
  ;
  (* the SAT encoding of g0's cone: the constant, both inputs and one
     variable per AND *)
  let solver = Backend.create () in
  ignore (Encode.Frame.lit (Encode.Frame.create solver net) g0 : Backend.lit);
  check "one solver variable per vertex"
    (Backend.num_vars solver = Net.num_vars net);
  (* every link computes a & ~b, so every AND shares one signature *)
  let sigs = Bsim.signatures ~seed:1 ~steps:31 net in
  let chain_sig = sigs.(Lit.var g0) in
  let links = ref 0 in
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.And _ -> if Int64.equal sigs.(v) chain_sig then incr links
      | Net.Const | Net.Input _ | Net.Reg _ | Net.Latch _ -> ());
  check "one signature along the chain" (!links = depth - 1);
  check "the inputs' signatures differ from the chain's"
    (List.for_all
       (fun v -> not (Int64.equal sigs.(v) chain_sig))
       (Net.inputs net));
  (* COM runs to completion: its SAT sweep checks the links in vertex
     order and merges each one before the next is encoded, so every
     check reads the representative directly and the sweep is linear
     in the depth.  The whole chain collapses onto one AND. *)
  let r = Core.Pipeline.com net in
  check "COM keeps the target"
    (List.map (fun t -> t.Core.Pipeline.target) r.Core.Pipeline.targets
    = [ "g0" ]);
  check "COM leaves one AND" (Net.num_ands r.Core.Pipeline.final = 1)
