(* A 100k-deep forward-referenced AND chain: g0 reads g1, g1 reads g2,
   ..., so building g0 first descends through every gate. *)

module Net = Netlist.Net
module Lit = Netlist.Lit
module Coi = Netlist.Coi

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
  (* COM's first cleanup copy rebuilds the whole chain, and the report
     bounds its target.  The budget is already expired, so COM stops
     there: its SAT sweep would check each of the 100k equivalent
     gates against one representative through the whole chain, work
     quadratic in the depth. *)
  let r = Core.Pipeline.com ~budget:(Obs.Budget.create ~timeout_s:0. ()) net in
  check "COM keeps the target"
    (List.map (fun t -> t.Core.Pipeline.target) r.Core.Pipeline.targets
    = [ "g0" ])
