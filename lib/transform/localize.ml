module Net = Netlist.Net
module Lit = Netlist.Lit

let run net ~cut =
  let n = Net.num_vars net in
  (* pre-create replacement inputs on a staging copy: redirect each cut
     vertex to a fresh input built beside the original (Rebuild copies
     only the cone, so we stage the inputs in the old netlist) *)
  let fresh_inputs = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if v > 0 && v < n && not (Hashtbl.mem fresh_inputs v) then
        Hashtbl.add fresh_inputs v
          (Net.add_input net (Printf.sprintf "cutpoint%d" v)))
    cut;
  Rebuild.copy ~redirect:(Hashtbl.find_opt fresh_inputs) net
