module Net = Netlist.Net
module Lit = Netlist.Lit
module Coi = Netlist.Coi
module Solver = Backend

type result = {
  bound : Sat_bound.t;
  path_length : int;
  sat_calls : int;
  exhausted : bool;
  why : string option;
}

(* The bound is only as good as the closing Unsat answer ("no
   irredundant path of length k exists"), so that answer can carry a
   clausal proof.  A register-free cone needs no SAT at all: its
   bound is a structural fact, recorded as such. *)
type evidence = Structural | Refutation of Sat.Proof.event list

type cert = { mutable evidence : evidence option }

let new_cert () = { evidence = None }

let attach_proof cert solver =
  match cert with
  | None -> None
  | Some _ ->
    let p = Sat.Proof.create () in
    Solver.set_proof solver p;
    Some p

let record_refutation cert proof =
  match (cert, proof) with
  | Some c, Some p -> c.evidence <- Some (Refutation (Sat.Proof.events p))
  | _ -> ()

(* distance of each register to the target: 0 if the target's
   combinational cone reads it, else 1 + the minimum over the registers
   whose next-state cones read it (BFS over reversed dependencies) *)
let target_distances net target =
  let regs = Net.regs net in
  (* reads: register -> registers its next-state cone reads *)
  let reads = Hashtbl.create 64 in
  List.iter
    (fun r' ->
      let cone = Coi.combinational net [ (Net.reg_of net r').Net.next ] in
      Hashtbl.replace reads r' (List.filter (fun r -> cone.(r)) regs))
    regs;
  let dist = Hashtbl.create 64 in
  let queue = Queue.create () in
  let cone0 = Coi.combinational net [ target ] in
  List.iter
    (fun r ->
      if cone0.(r) then begin
        Hashtbl.replace dist r 0;
        Queue.add r queue
      end)
    regs;
  while not (Queue.is_empty queue) do
    let r' = Queue.pop queue in
    let d = Hashtbl.find dist r' in
    List.iter
      (fun r ->
        if not (Hashtbl.mem dist r) then begin
          Hashtbl.replace dist r (d + 1);
          Queue.add r queue
        end)
      (Hashtbl.find reads r')
  done;
  dist

let gave_up ?(why = Backend.budget_reason) k sat_calls =
  if not (Backend.is_unavailable why) then
    Obs.Budget.note_exhausted "recurrence";
  {
    bound = Sat_bound.huge;
    path_length = k - 1;
    sat_calls;
    exhausted = true;
    why = Some why;
  }

let expired budget =
  match budget with Some b -> Obs.Budget.expired b | None -> false

let plain ~limit ?budget ?cert ?backend net target regs =
  let solver = Backend.solver_of backend in
  let proof = attach_proof cert solver in
  let unroll = Encode.Unroll.create solver net in
  ignore target;
  let state_lits t =
    List.map (fun r -> Encode.Unroll.lit_at unroll (Lit.make r) t) regs
  in
  let sat_calls = ref 0 in
  let rec extend k =
    if k > limit then
      {
        bound = Sat_bound.huge;
        path_length = k - 1;
        sat_calls = !sat_calls;
        exhausted = false;
        why = None;
      }
    else if expired budget then gave_up k !sat_calls
    else begin
      for i = 0 to k - 1 do
        Encode.Frame.distinct solver fst snd
          (List.combine (state_lits i) (state_lits k))
      done;
      incr sat_calls;
      match Encode.Sat_obs.solve ?budget ~span:"recurrence.solve" solver with
      | Solver.Sat -> extend (k + 1)
      | Solver.Unsat ->
        record_refutation cert proof;
        {
          bound = Sat_bound.of_int k;
          path_length = k - 1;
          sat_calls = !sat_calls;
          exhausted = false;
        why = None;
        }
      | Solver.Unknown why -> gave_up ~why k !sat_calls
    end
  in
  extend 1

(* Kroening & Strichman's bounded cone of influence [6]: on a path
   hitting the target at its final frame, an earlier frame [j] only
   needs to be distinguished from frames before it on the registers
   that can still reach the target in the remaining [k - j] steps —
   agreeing on those lets the suffix be spliced forward, shortening
   the hit.

   Two details keep the "first UNSAT k" search sound: the path's start
   state is FREE (an init-anchored path's suffix is not init-anchored,
   which would break monotonicity in k), and relevance is measured
   from the path's end, so a satisfying path of length k+1 contains a
   satisfying path of length k as its suffix (monotone, hence the
   first UNSAT closes the search).  The relevance sets depend on [k],
   so each [k] is encoded afresh. *)
let bounded ~limit ?budget ?cert ?backend net target regs =
  let dist = target_distances net target in
  let sat_calls = ref 0 in
  let rec extend k =
    if k > limit then
      {
        bound = Sat_bound.huge;
        path_length = k - 1;
        sat_calls = !sat_calls;
        exhausted = false;
        why = None;
      }
    else if expired budget then gave_up k !sat_calls
    else begin
      let solver = Backend.solver_of backend in
      (* each k is a fresh encoding, so a fresh proof; only the final
         (Unsat) one becomes the certificate *)
      let proof = attach_proof cert solver in
      let frames = Encode.Frame.chain solver net k in
      let relevant j =
        List.filter
          (fun r ->
            match Hashtbl.find_opt dist r with
            | Some d -> d <= k - j
            | None -> false)
          regs
      in
      let lits rs f = List.map (fun r -> Encode.Frame.state_var frames.(f) r) rs in
      for j = 1 to k do
        let rs = relevant j in
        if rs <> [] then
          for i = 0 to j - 1 do
            Encode.Frame.distinct solver fst snd
              (List.combine (lits rs i) (lits rs j))
          done
      done;
      incr sat_calls;
      match Encode.Sat_obs.solve ?budget ~span:"recurrence.solve" solver with
      | Solver.Sat -> extend (k + 1)
      | Solver.Unsat ->
        record_refutation cert proof;
        {
          bound = Sat_bound.of_int k;
          path_length = k - 1;
          sat_calls = !sat_calls;
          exhausted = false;
        why = None;
        }
      | Solver.Unknown why -> gave_up ~why k !sat_calls
    end
  in
  extend 1

let compute ?(limit = 64) ?(bounded_coi = false) ?budget ?cert ?backend net target =
  Obs.span "recurrence.compute" (fun () ->
      (* work on the target's cone only *)
      let cone = Transform.Rebuild.copy ~roots:[ target ] net in
      let target = Transform.Rebuild.map_lit cone target in
      let net = cone.Transform.Rebuild.net in
      let regs = Net.regs net in
      let result =
        if regs = [] then begin
          Option.iter (fun c -> c.evidence <- Some Structural) cert;
          {
            bound = Sat_bound.of_int 1;
            path_length = 0;
            sat_calls = 0;
            exhausted = false;
        why = None;
          }
        end
        else if bounded_coi then
          bounded ~limit ?budget ?cert ?backend net target regs
        else plain ~limit ?budget ?cert ?backend net target regs
      in
      Obs.Stats.count "recurrence.sat_calls" result.sat_calls;
      result)
