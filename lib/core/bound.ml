module Net = Netlist.Net
module Lit = Netlist.Lit
module Coi = Netlist.Coi

type t = {
  bound : Sat_bound.t;
  analysis : Classify.analysis;
  coi_regs : int;
}

(* Count fanout references of each vertex (for input freshness). *)
let fanout_counts net =
  let counts = Array.make (Net.num_vars net) 0 in
  Net.iter_nodes net (fun _ node ->
      let touch l = counts.(Lit.var l) <- counts.(Lit.var l) + 1 in
      match node with
      | Net.Const | Net.Input _ -> ()
      | Net.And (a, b) ->
        touch a;
        touch b
      | Net.Reg r -> touch r.Net.next
      | Net.Latch l -> touch l.Net.l_data);
  counts

(* A vertex is FREE when it is trace-equivalent to a fresh primary
   input: any valuation is producible at any time step independently of
   other time steps.  This is Definition 3's second worked example: an
   input, or a chain of registers with nondeterministic initial values
   whose sources fan out nowhere else (the paper's i0 -> r1 -> r2 with
   input-driven initial values has d(r2) = 1).  [slack] is the number
   of fanout references allowed at the top of the chain: 1 for a chain
   link, 2 for an XOR operand (the AIG decomposition of XOR references
   each operand twice). *)
let rec is_free net fanouts ~slack v =
  match Net.node net v with
  | Net.Input _ -> fanouts.(v) <= slack
  | Net.Reg r ->
    r.Net.r_init = Net.Init_x
    && fanouts.(v) <= slack
    &&
    let u = Lit.var r.Net.next in
    is_free net fanouts ~slack:1 u
  | Net.Const | Net.And _ | Net.Latch _ -> false

let is_fresh_input net fanouts l =
  is_free net fanouts ~slack:2 (Lit.var l)

(* XOR recognition on the strashed AIG:
   a ^ b = ~( ~(a & ~b) & ~(~a & b) ), so an XOR is a negated AND of
   two negated ANDs whose operand pairs are element-wise complements.
   The XOR operands are then one inner AND's operands, one of them
   complemented. *)
let as_xor net l =
  if not (Lit.is_neg l) then None
  else
    match Net.node net (Lit.var l) with
    | Net.And (p, q) when Lit.is_neg p && Lit.is_neg q -> (
      match (Net.node net (Lit.var p), Net.node net (Lit.var q)) with
      | Net.And (a1, b1), Net.And (a2, b2) ->
        if
          (Lit.equal a2 (Lit.neg a1) && Lit.equal b2 (Lit.neg b1))
          || (Lit.equal a2 (Lit.neg b1) && Lit.equal b2 (Lit.neg a1))
        then Some (a1, Lit.neg b1)
        else None
      | (Net.Const | Net.Input _ | Net.Reg _ | Net.Latch _), _
      | _, (Net.Const | Net.Input _ | Net.Reg _ | Net.Latch _) ->
        None)
    | Net.And _ | Net.Const | Net.Input _ | Net.Reg _ | Net.Latch _ -> None

let controlled_with net fanouts l =
  match Net.node net (Lit.var l) with
  | Net.Input _ | Net.Const -> true
  | Net.Reg _ ->
    (* a free-register chain is trace-equivalent to an input; the
       target itself may fan out arbitrarily *)
    is_free net fanouts ~slack:max_int (Lit.var l)
  | Net.Latch _ -> false
  | Net.And _ -> (
    match as_xor net l with
    | Some (a, b) ->
      is_fresh_input net fanouts a || is_fresh_input net fanouts b
    | None -> (
      (* also accept the complement of an XOR *)
      match as_xor net (Lit.neg l) with
      | Some (a, b) ->
        is_fresh_input net fanouts a || is_fresh_input net fanouts b
      | None -> false))

let input_controlled net l = controlled_with net (fanout_counts net) l

(* the per-target body shared by [target] and [all_targets];
   [analysis] maps the target's cone to its classification *)
let bound_in net ~analysis ~controlled l =
  Obs.Stats.count "bound.targets_analyzed" 1;
  let cone = Coi.of_lits net [ l ] in
  let in_cone v = cone.(v) in
  let coi_regs =
    List.length (List.filter in_cone (Net.regs net))
    + List.length (List.filter in_cone (Net.latches net))
  in
  let analysis = analysis cone in
  let bound =
    if coi_regs = 0 || controlled l then Sat_bound.of_int 1
    else Compose.bound_for net analysis ~seq_cone:cone l
  in
  { bound; analysis; coi_regs }

let target net l =
  Obs.span "bound.target" (fun () ->
      bound_in net
        ~analysis:(fun cone -> Classify.analyze ~within:cone net)
        ~controlled:(input_controlled net) l)

let target_named net name =
  match List.assoc_opt name (Net.targets net) with
  | Some l -> target net l
  | None -> invalid_arg ("Bound.target_named: unknown target " ^ name)

(* For a whole target list, one netlist-level analysis suffices: the
   levelized composition restricts itself to each target's cone, so
   classifying once is equivalent to classifying per cone.  The
   analysis is returned too, so a caller that also wants the
   netlist's class counts does not classify a second time. *)
let all_targets net =
  Obs.span "bound.all_targets" (fun () ->
      let analysis = Classify.analyze net in
      let controlled = controlled_with net (fanout_counts net) in
      ( analysis,
        List.map
          (fun (name, l) ->
            (name, bound_in net ~analysis:(fun _ -> analysis) ~controlled l))
          (Net.targets net) ))
