(* Independent certification primitives for engine verdicts.

   Each check re-derives an answer from recorded evidence using
   machinery disjoint from whatever produced it: counterexamples
   replay on the three-valued simulator, Unsat answers re-check
   through the DRUP verifier, and bound translations are recomputed
   from the recorded theorem applications with local arithmetic
   instead of the translator closures.  The checks are verdict-shaped
   primitives; {!Engine} composes them per strategy. *)

module Net = Netlist.Net

(* every check runs under its own span, so certification overhead is
   separable from the solver work it is checking; the trace event
   records whether the check passed *)
let ok r = [ ("ok", Obs.Trace.Bool (Result.is_ok r)) ]

let check_cex net target cex =
  Obs.span ~result:ok "certify.replay" (fun () ->
      if Bmc.replay net target cex then Ok ()
      else
        Error
          (Printf.sprintf
             "counterexample does not replay: target not hit at time %d"
             cex.Bmc.depth))

let check_no_hit ?depth (cert : Bmc.cert) =
  Obs.span ~result:ok "certify.drup" (fun () ->
      let goals = List.rev_map (fun (_, tl) -> [ tl ]) cert.Bmc.goals in
      let missing =
        (* one refuted goal per depth 0..d, or the answer is not what
           the proof claims to certify *)
        match depth with
        | Some d -> List.length goals <> d + 1
        | None -> goals = []
      in
      if missing then
        Error
          (Printf.sprintf "no-hit certificate covers %d depth(s), expected %s"
             (List.length goals)
             (match depth with
             | Some d -> string_of_int (d + 1)
             | None -> "at least 1"))
      else Sat.Drup.check ~goals (Sat.Proof.events cert.Bmc.proof))

(* Saturating arithmetic reimplemented locally (same semantics as
   Sat_bound: saturation at max_int / 4) so that certifying a
   translation shares no code with computing it. *)
let sat_point = max_int / 4

let sat_add a b =
  if a >= sat_point || b >= sat_point || a + b >= sat_point then sat_point
  else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a >= sat_point || b >= sat_point || a > sat_point / b then sat_point
  else a * b

let pp_step ppf = function
  | Translate.Id -> Format.pp_print_string ppf "id"
  | Translate.T1 -> Format.pp_print_string ppf "T1"
  | Translate.T2 skew -> Format.fprintf ppf "T2(+%d)" skew
  | Translate.T3 factor -> Format.fprintf ppf "T3(x%d)" factor
  | Translate.T4 k -> Format.fprintf ppf "T4(+%d)" k

let apply_step d = function
  | Translate.Id | Translate.T1 -> d
  | Translate.T2 skew -> sat_add d skew
  | Translate.T3 factor -> sat_mul d factor
  | Translate.T4 k -> sat_add d k

let check_translation ~raw ~steps ~claimed =
  Obs.span ~result:ok "certify.translate" (fun () ->
      let negative =
        List.exists
          (function
            | Translate.T2 skew -> skew < 0
            | Translate.T3 factor -> factor < 1
            | Translate.T4 k -> k < 0
            | Translate.Id | Translate.T1 -> false)
          steps
      in
      if negative then Error "translation step with an illegal parameter"
      else if raw < 0 then Error "negative raw bound"
      else begin
        let recomputed = List.fold_left apply_step raw steps in
        if recomputed = claimed then Ok ()
        else
          Error
            (Format.asprintf
               "bound translation mismatch: %d via [%a] gives %d, claimed %d"
               raw
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
                  pp_step)
               steps recomputed claimed)
      end)

let check_recurrence (cert : Recurrence.cert) =
  match cert.Recurrence.evidence with
  | None -> Error "recurrence certificate has no evidence"
  | Some Recurrence.Structural ->
    (* register-free cone: the bound never depended on a SAT answer,
       so there is nothing clausal to check — same trust class as the
       structural bounds *)
    Ok ()
  | Some (Recurrence.Refutation events) ->
    Obs.span ~result:ok "certify.drup" (fun () ->
        match Sat.Drup.check events with
        | Ok () -> Ok ()
        | Error msg -> Error ("recurrence closure: " ^ msg))

let check_induction ~k (cert : Induction.cert) =
  match cert.Induction.base with
  | None -> Error "induction certificate has no base-case evidence"
  | Some base -> (
    match check_no_hit ~depth:k base with
    | Error msg -> Error ("base case: " ^ msg)
    | Ok () -> (
      match cert.Induction.step with
      | None ->
        (* stateless designs are proved by the depth-0 base alone *)
        if k = 0 then Ok ()
        else Error "induction certificate has no step-case evidence"
      | Some (events, goal) ->
        Obs.span ~result:ok "certify.drup" (fun () ->
            match Sat.Drup.check ~goals:[ [ goal ] ] events with
            | Ok () -> Ok ()
            | Error msg -> Error ("step case: " ^ msg))))
