module Net = Netlist.Net
module Lit = Netlist.Lit
module Solver = Backend

type outcome =
  | Proved of int
  | Cex of Bmc.cex
  | Unknown of int
  | Exhausted of { k : int; why : string }

(* certificate for a [Proved k] outcome: the base case is an ordinary
   BMC certificate to depth k; the step case is the step solver's
   proof together with the assumption literal ("target at frame k+1")
   whose refutation is the induction step *)
type cert = {
  mutable base : Bmc.cert option;
  mutable step : (Sat.Proof.event list * Solver.lit) option;
}

let new_cert () = { base = None; step = None }

(* step case: from a free state, k hit-free steps force step k+1 to be
   hit-free *)
let step_holds ~unique ?budget ?cert ?backend net target k =
  let solver = Backend.solver_of backend in
  let proof =
    Option.map
      (fun _ ->
        let p = Sat.Proof.create () in
        Solver.set_proof solver p;
        p)
      cert
  in
  let frames = Encode.Frame.chain solver net (k + 1) in
  for i = 0 to k do
    Solver.add_clause solver [ Solver.negate (Encode.Frame.lit frames.(i) target) ]
  done;
  if unique then
    for i = 0 to k do
      for j = i + 1 to k + 1 do
        Encode.Frame.distinct solver
          (Encode.Frame.state_var frames.(i))
          (Encode.Frame.state_var frames.(j))
          (Net.regs net)
      done
    done;
  let goal = Encode.Frame.lit frames.(k + 1) target in
  match
    Encode.Sat_obs.solve ~assumptions:[ goal ] ?budget ~span:"induction.solve"
      solver
  with
  | Solver.Unsat ->
    Option.iter
      (fun c ->
        c.step <- Some (Sat.Proof.events (Option.get proof), goal))
      cert;
    `Holds
  | Solver.Sat -> `Fails
  | Solver.Unknown why -> `Unknown why

let prove ?(max_k = 32) ?(unique = true) ?budget ?cert ?backend net ~target =
  if Net.num_latches net > 0 then
    invalid_arg "Induction.prove: register netlists only";
  let tlit =
    match List.assoc_opt target (Net.targets net) with
    | Some l -> l
    | None -> invalid_arg ("Induction.prove: unknown target " ^ target)
  in
  let give_up ?(why = Backend.budget_reason) k =
    if not (Backend.is_unavailable why) then
      Obs.Budget.note_exhausted ?budget "induction";
    Exhausted { k; why }
  in
  let expired () =
    match budget with Some b -> Obs.Budget.expired b | None -> false
  in
  (* a fresh BMC certificate per base check: check_lit builds a fresh
     solver each call, and only the final k's base matters *)
  let base_cert () =
    Option.map
      (fun c ->
        let bc = Bmc.new_cert () in
        c.base <- Some bc;
        bc)
      cert
  in
  (* degenerate case: no state at all *)
  if Net.regs net = [] then begin
    match Bmc.check_lit ?budget ?cert:(base_cert ()) ?backend net tlit ~depth:0 with
    | Bmc.Hit cex -> Cex cex
    | Bmc.No_hit _ -> Proved 0
    | Bmc.Unknown { why; _ } -> give_up ~why 0
  end
  else begin
    let rec go k =
      if k > max_k then Unknown max_k
      else if expired () then give_up k
      else begin
        (* base case: no hit within the first k steps *)
        match Bmc.check_lit ?budget ?cert:(base_cert ()) ?backend net tlit ~depth:k with
        | Bmc.Hit cex -> Cex cex
        | Bmc.Unknown { why; _ } -> give_up ~why k
        | Bmc.No_hit _ -> (
          match step_holds ~unique ?budget ?cert ?backend net tlit k with
          | `Holds -> Proved k
          | `Fails -> go (k + 1)
          | `Unknown why -> give_up ~why k)
      end
    in
    go 0
  end
