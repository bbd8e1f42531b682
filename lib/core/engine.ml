module Net = Netlist.Net
module Lit = Netlist.Lit
module Stats = Obs.Stats

type config = {
  cutoff : int;
  probe_depth : int;
  enlargement_k : int;
  enlargement_reg_limit : int;
  recurrence_limit : int;
  induction_max_k : int;
  backend : Backend.spec option;
}

let default =
  {
    cutoff = 50;
    probe_depth = 10;
    enlargement_k = 3;
    enlargement_reg_limit = 18;
    recurrence_limit = 48;
    induction_max_k = 16;
    backend = None;
  }

(* the backend spec a run solves with: an explicit config choice, else
   the process default (set by the CLI / DIAMBOUND_BACKEND) *)
let spec_of config =
  match config.backend with Some s -> s | None -> Backend.default ()

type attempt = {
  strategy : string;
  reason : string;
  elapsed_s : float;
  bound : Sat_bound.t option;
}

type verdict =
  | Proved of { strategy : string; depth : int }
  | Violated of { strategy : string; cex : Bmc.cex }
  | Inconclusive of { attempts : attempt list }

let pp_verdict ppf = function
  | Proved { strategy; depth } ->
    Format.fprintf ppf "PROVED by %s (complete to depth %d)" strategy depth
  | Violated { strategy; cex } ->
    Format.fprintf ppf "VIOLATED at time %d (found by %s)" cex.Bmc.depth
      strategy
  | Inconclusive { attempts } ->
    Format.fprintf ppf "INCONCLUSIVE after %d strategies:"
      (List.length attempts);
    List.iter
      (fun a ->
        Format.fprintf ppf "@.  %-20s %s" a.strategy a.reason;
        (match a.bound with
        | Some b -> Format.fprintf ppf " [bound %s]" (Sat_bound.to_string b)
        | None -> ());
        Format.fprintf ppf " (%.1fms)" (1e3 *. a.elapsed_s))
      attempts

(* compact and timing-free: runs agree modulo wall clock iff their
   briefs are equal *)
let verdict_brief = function
  | Proved { strategy; depth } ->
    Printf.sprintf "PROVED(%s,depth=%d)" strategy depth
  | Violated { strategy; cex } ->
    Printf.sprintf "VIOLATED(%s,t=%d)" strategy cex.Bmc.depth
  | Inconclusive { attempts } ->
    Printf.sprintf "INCONCLUSIVE(%s)"
      (String.concat ";"
         (List.map (fun a -> a.strategy ^ "=" ^ a.reason) attempts))

let discharge_depth bound =
  if Sat_bound.is_huge bound || bound <= 0 then None else Some (bound - 1)

exception Done of verdict

let outcome_name = function
  | Proved _ -> "proved"
  | Violated _ -> "violated"
  | Inconclusive _ -> "inconclusive"

(* the one distinguished stand-down reason: resource budget ran out,
   as opposed to a strategy being inapplicable or giving up *)
let budget_reason = "budget-exhausted"

(* prefix of every certification-failure stand-down reason *)
let cert_fail_reason = "certification-failed"

let () = Stats.declare [ "engine.cert_ok"; "engine.cert_fail" ]

(* ----- one strategy, run in isolation -----

   A strategy body receives scoped callbacks rather than touching any
   verify-wide state, so the same ladder runs identically whether the
   strategies execute sequentially on one domain or as independent
   portfolio jobs across several. *)

type callbacks = {
  sbudget : Obs.Budget.t;  (* this strategy's slice *)
  certifying : bool;
  sink : (Sat.Proof.t -> unit) option;
  stand_down : string -> unit;
  discharge :
    ?translator:Translate.t ->
    ?pre:(unit -> (unit, string) result) ->
    Sat_bound.t ->
    unit;
  bmc :
    ?probe:bool ->
    ?pre:(unit -> (unit, string) result) ->
    strategy:string ->
    int ->
    unit;
  certified : (unit -> (unit, string) result) -> verdict -> unit;
}

type strategy = string * (callbacks -> unit)

(* one cell's outcome: its verdict if conclusive, the attempts it
   recorded and the proofs it sank (buffered until selection) *)
type cell_result = {
  won : verdict option;
  atts : attempt list;
  proofs : Sat.Proof.t list;
}

(* Run one strategy under [slice].  The [Done] unwind never escapes:
   a pool executor must not have exceptions crossing domain
   boundaries, and the in-domain executor decides itself when to
   stop.  With [keep_proofs] the proofs it would sink are buffered in
   order, for replay only if this cell is selected. *)
let run_strategy ~config ~certify ~keep_proofs ~backend ~slice net ~target
    ~tlit ((name, body) : strategy) =
  let t0 = Stats.now () in
  let attempts = ref [] in
  let bound_seen = ref None in
  let proofs = ref [] in
  let proof_sink =
    if keep_proofs then Some (fun p -> proofs := p :: !proofs) else None
  in
  let stand_down reason =
    (* a rank cancelled by a lower conclusive one stands down with the
       same reason, but its allowance did not run out *)
    if String.equal reason budget_reason && not (Obs.Budget.cancelled slice)
    then begin
      Stats.count "engine.budget_exhausted" 1;
      Obs.Budget.note_exhausted "engine"
    end;
    attempts :=
      {
        strategy = name;
        reason;
        elapsed_s = Stats.now () -. t0;
        bound = !bound_seen;
      }
      :: !attempts
  in
  (* Gate a candidate verdict behind its certification.  Certification
     is a safety net, so any failure — including an exception escaping
     a checker — downgrades the candidate to a stand-down with the
     distinguished reason and lets the ladder continue; it never
     crashes the engine and never lets an uncertified Proved/Violated
     through. *)
  let certified check verdict =
    if not certify then raise (Done verdict)
    else begin
      match try check () with exn -> Error (Printexc.to_string exn) with
      | Ok () ->
        Stats.count "engine.cert_ok" 1;
        raise (Done verdict)
      | Error msg ->
        Stats.count "engine.cert_fail" 1;
        stand_down (cert_fail_reason ^ ": " ^ msg)
    end
  in
  (* One BMC run to [depth] on the ORIGINAL netlist, and its verdict
     behind certification: a [No_hit] is certified by [pre] (the
     bound's own provenance) plus the DRUP re-check of the run's Unsat
     answers, whose proof then reaches the sink; a [Hit] by replaying
     the counterexample.  A [probe] runs without a certificate and
     only hunts counterexamples: its [No_hit] stands down. *)
  let bmc ?(probe = false) ?(pre = fun () -> Ok ()) ~strategy depth =
    let cert = if certify && not probe then Some (Bmc.new_cert ()) else None in
    match Bmc.check ?cert ~budget:slice ~backend net ~target ~depth with
    | Bmc.No_hit _ when probe -> stand_down "no shallow counterexample"
    | Bmc.No_hit d ->
      certified
        (fun () ->
          match pre () with
          | Error _ as e -> e
          | Ok () -> (
            let c = Option.get cert in
            match Certify.check_no_hit ~depth:d c with
            | Ok () ->
              Option.iter (fun sink -> sink c.Bmc.proof) proof_sink;
              Ok ()
            | Error _ as e -> e))
        (Proved { strategy; depth = d })
    | Bmc.Hit cex ->
      certified
        (fun () -> Certify.check_cex net tlit cex)
        (Violated { strategy; cex })
    | Bmc.Unknown { why; _ } -> stand_down why
  in
  (* a finite translated bound below the cutoff closes the problem
     with one complete BMC run on the ORIGINAL netlist.  [raw] is
     the bound as computed on the transformed netlist; [translator]
     carries it back.  Under certification the arithmetic is
     recomputed from the recorded theorem steps and the discharge
     run's Unsat answers re-check through the DRUP verifier. *)
  let discharge ?(translator = Translate.identity) ?(pre = fun () -> Ok ())
      raw =
    let bound = translator.Translate.apply raw in
    bound_seen := Some bound;
    if Sat_bound.is_huge bound then stand_down "no practically useful bound"
    else if bound >= config.cutoff then
      stand_down
        (Printf.sprintf "bound %s above cutoff %d" (Sat_bound.to_string bound)
           config.cutoff)
    else begin
      (* [pre] certifies the raw bound's own provenance when it came
         from a SAT answer (recurrence); arithmetic re-derives the
         translation *)
      let arithmetic () =
        match pre () with
        | Error _ as e -> e
        | Ok () ->
          Certify.check_translation ~raw ~steps:translator.Translate.steps
            ~claimed:bound
      in
      match discharge_depth bound with
      | None ->
        (* bound 0: the target is unhittable at any depth; the
           BMC run would be vacuous (and [depth - 1] negative) *)
        certified arithmetic (Proved { strategy = name; depth = 0 })
      | Some depth -> bmc ~pre:arithmetic ~strategy:name depth
    end
  in
  let cb =
    {
      sbudget = slice;
      certifying = certify;
      sink = proof_sink;
      stand_down;
      discharge;
      bmc;
      certified;
    }
  in
  let verdict =
    (* an exhausted (or cancelled) budget still records an attempt: a
       strategy is never skipped silently, no matter how degenerate
       the slice an overrunning predecessor left it *)
    if Obs.Budget.expired slice then begin
      stand_down budget_reason;
      None
    end
    else begin
      (* one span per strategy slice; the Done unwind that delivers a
         verdict is converted to an "outcome" attribute rather than
         recorded as an exception *)
      Obs.Heartbeat.set_phase ("engine." ^ name);
      let won =
        Obs.span ("engine." ^ name)
          ~args:[ ("target", Obs.Trace.String target) ]
          ~result:(fun won ->
            [
              ( "outcome",
                Obs.Trace.String
                  (match won with
                  | None -> "stand-down"
                  | Some v -> outcome_name v) );
            ])
          (fun () -> match body cb with () -> None | exception Done v -> Some v)
      in
      (* a body that returned without concluding or standing down
         would vanish from the attempt log; make the gap visible *)
      if won = None && !attempts = [] then
        stand_down "stood down without a recorded reason";
      won
    end
  in
  { won = verdict; atts = List.rev !attempts; proofs = List.rev !proofs }

(* ----- the strategy ladder -----

   The rungs read the register-based view (the phase abstraction for
   latch-based designs, translated by Theorem 3), COM and COM,RET,COM
   from [store], which computes each once for all targets. *)
let ladder ~config ~backend ~suffix store ~target ~tlit : strategy list =
  let net = Pipeline.Store.net store in
  let latch_based = Net.num_latches net > 0 in
  (* [cell base] is the (strategy, backend) cell's name: the plain
     strategy name except for non-reference backends in a race, which
     are suffixed so ranked cells stay distinguishable in attempt logs
     and cache keys while the default single-backend output stays
     byte-identical *)
  let cell base = base ^ suffix in
  (* the target's literal in the register view, for the rungs that
     bound it there directly *)
  let on_reg_view cb k =
    let view, fold = Pipeline.Store.register_view store in
    let reg_view = Pipeline.Store.net view in
    match List.assoc_opt target (Net.targets reg_view) with
    | None -> cb.stand_down "target lost by phase abstraction"
    | Some l -> k reg_view fold l
  in
  (* a transformation pipeline on the register view, its bound
     translated back through the pipeline and then the phase fold *)
  let pipeline_rung
      (run : ?budget:_ -> ?inprocess:_ -> Pipeline.Store.t -> Pipeline.report)
      cb =
    let view, fold = Pipeline.Store.register_view store in
    let report =
      run ~budget:cb.sbudget ?inprocess:backend.Backend.b_inprocess view
    in
    match
      List.find_opt
        (fun t -> String.equal t.Pipeline.target target)
        report.Pipeline.targets
    with
    | Some t ->
      cb.discharge
        ~translator:(Translate.compose fold t.Pipeline.translator)
        t.Pipeline.raw_bound
    | None -> cb.stand_down "target reduced away"
  in
  [
    (* 1. shallow probe *)
    ( cell "bmc-probe",
      fun cb ->
        cb.bmc ~probe:true ~strategy:(cell "bmc-probe") config.probe_depth );
    (* 2. structural bound, untransformed *)
    ( cell "structural-bound",
      fun cb ->
        on_reg_view cb (fun reg_view fold l ->
            cb.discharge ~translator:fold (Bound.target reg_view l).Bound.bound)
    );
    (* 3. COM (Theorem 1) *)
    (cell "com+bound", pipeline_rung Pipeline.Store.com);
    (* 4. COM,RET,COM (Theorems 1 + 2) *)
    (cell "com-ret-com+bound", pipeline_rung Pipeline.Store.com_ret_com);
    (* 5. target enlargement (Theorem 4) — register view only, and the
       hittability bound is still a valid completeness threshold for
       this very target *)
    ( cell "enlargement+bound",
      fun cb ->
        if latch_based then cb.stand_down "latch-based design"
        else begin
          match
            Transform.Enlarge.run ~reg_limit:config.enlargement_reg_limit
              ?max_nodes:(Obs.Budget.bdd_nodes cb.sbudget) net ~target
              ~k:config.enlargement_k
          with
          | Error (Transform.Enlarge.Unsuitable reason) -> cb.stand_down reason
          | Error (Transform.Enlarge.Node_limit _) ->
            cb.stand_down budget_reason
          | Ok r ->
            if r.Transform.Enlarge.empty then begin
              (* every hit, if any, occurs within the first k steps;
                 clamp so k = 0 (nothing hittable at all) does not
                 turn into a depth -1 run.  Note the BDD emptiness
                 result itself has no certificate — only this BMC
                 run is certified *)
              cb.bmc ~strategy:(cell "enlargement-empty")
                (max 0 (config.enlargement_k - 1))
            end
            else begin
              let name =
                Printf.sprintf "%s#enl%d" target config.enlargement_k
              in
              let b = Bound.target_named r.Transform.Enlarge.net name in
              cb.discharge
                ~translator:
                  (Translate.target_enlargement ~k:config.enlargement_k)
                b.Bound.bound
            end
        end );
    (* 6. bounded-COI recurrence diameter *)
    ( cell "recurrence-bcoi",
      fun cb ->
        on_reg_view cb (fun reg_view fold l ->
            let rcert =
              if cb.certifying then Some (Recurrence.new_cert ()) else None
            in
            let r =
              Recurrence.compute ~limit:config.recurrence_limit
                ~bounded_coi:true ~budget:cb.sbudget ?cert:rcert ~backend
                reg_view l
            in
            if r.Recurrence.exhausted then
              cb.stand_down
                (Option.value ~default:budget_reason r.Recurrence.why)
            else
              let pre () =
                match rcert with
                | Some c -> Certify.check_recurrence c
                | None -> Ok ()
              in
              cb.discharge ~translator:fold ~pre r.Recurrence.bound) );
    (* 7. temporal induction *)
    ( cell "k-induction",
      fun cb ->
        if latch_based then cb.stand_down "latch-based design"
        else begin
          let icert =
            if cb.certifying then Some (Induction.new_cert ()) else None
          in
          match
            Induction.prove ~max_k:config.induction_max_k ~budget:cb.sbudget
              ?cert:icert ~backend net ~target
          with
          | Induction.Proved k ->
            cb.certified
              (fun () ->
                let c = Option.get icert in
                match Certify.check_induction ~k c with
                | Ok () ->
                  Option.iter
                    (fun sink ->
                      match c.Induction.base with
                      | Some bc -> sink bc.Bmc.proof
                      | None -> ())
                    cb.sink;
                  Ok ()
                | Error _ as e -> e)
              (Proved { strategy = cell "k-induction"; depth = k })
          | Induction.Cex cex ->
            cb.certified
              (fun () -> Certify.check_cex net tlit cex)
              (Violated { strategy = cell "k-induction"; cex })
          | Induction.Unknown k ->
            cb.stand_down (Printf.sprintf "gave up at k = %d" k)
          | Induction.Exhausted { why; _ } -> cb.stand_down why
        end );
  ]

let check_target net target =
  match List.assoc_opt target (Net.targets net) with
  | Some l -> l
  | None -> invalid_arg ("Engine.verify: unknown target " ^ target)

(* ----- the (strategy x backend) cell grid -----

   One cell per ladder strategy per backend of the run's spec,
   BACKEND-MAJOR: every cell of the first backend, in ladder order,
   outranks every cell of the next.  A later backend is thus a
   fallback: it can only decide a target on which the whole ladder of
   every earlier backend stood down, and no cell of a later backend
   outranks a verdict of the first.  With a single
   backend this degenerates to the plain ladder (identical names,
   identical order), so default output is unchanged.  Rank order is
   total and static, which is what keeps portfolio selection
   deterministic for every job count. *)

let cells ~config store ~target ~tlit : (Backend.t * strategy) list =
  let bs =
    match Backend.backends (spec_of config) with
    | [] -> [ Backend.reference () ]
    | bs -> bs
  in
  let multi = List.length bs > 1 in
  List.concat_map
    (fun b ->
      let suffix =
        if multi && not (Backend.is_reference b) then "@" ^ b.Backend.b_name
        else ""
      in
      List.map
        (fun s -> (b, s))
        (ladder ~config ~backend:b ~suffix store ~target ~tlit))
    bs

let count_verdict v = Stats.count ("engine." ^ outcome_name v) 1

(* ----- the grid runner -----

   One body runs every verification: check the target, build the
   cell grid, run the cells through an executor, then select the
   LOWEST-ranked conclusive cell and replay only its proofs.  Each
   cell sinks its proofs into its own buffer, so the caller's sink
   never observes a cell that was not selected.  The executors differ
   only in scheduling:

   - [In_domain] runs the cells in rank order on the calling domain,
     each on an equal slice of the wall clock remaining, and stops at
     the first conclusive one.
   - [On_pool] races every cell on a worker pool, each with the WHOLE
     remaining budget plus its rank's cancellation token; a conclusive
     cell at rank k cancels only the ranks above k, whose outcome can
     no longer be selected (the backends' solve loops all poll
     [should_stop], so BDD and external cells cancel too).  A cell
     already cancelled when a worker dequeues it is never started.

   Selection by rank, never by arrival, makes both executors pick the
   same cell: on the pool every lower-ranked cell ran uncancelled to
   completion and was inconclusive, exactly as in rank order. *)

type executor = In_domain | On_pool of Sched.Pool.t

let run_grid exec ~config ~budget ~certify ~proof_sink store ~target =
  let net = Pipeline.Store.net store in
  let tlit = check_target net target in
  (* a proof sink only ever receives certified proofs *)
  let certify = certify || proof_sink <> None in
  let grid = cells ~config store ~target ~tlit in
  let run_cell ~slice (backend, s) =
    run_strategy ~config ~certify ~keep_proofs:(proof_sink <> None) ~backend
      ~slice net ~target ~tlit s
  in
  let rec in_domain ways = function
    | [] -> []
    | c :: rest ->
      (* an overrunning cell only squeezes, never starves, the later
         ones: [slice] clamps an overdrawn remainder, and
         [run_strategy] records a budget attempt on a dead slice *)
      let r = run_cell ~slice:(Obs.Budget.slice budget ~ways) c in
      if r.won <> None then [ r ] else r :: in_domain (ways - 1) rest
  in
  let on_pool pool =
    let n = List.length grid in
    let cancels = Array.init n (fun _ -> Atomic.make false) in
    Sched.Pool.map pool
      (fun (rank, c) ->
        if Atomic.get cancels.(rank) then
          (* a lower rank has already concluded: this cell can never
             be selected, so it is not run at all *)
          { won = None; atts = []; proofs = [] }
        else
          let r =
            run_cell ~slice:(Obs.Budget.with_cancel budget cancels.(rank)) c
          in
          if r.won <> None then
            for j = rank + 1 to n - 1 do
              Atomic.set cancels.(j) true
            done;
          r)
      (List.mapi (fun rank c -> (rank, c)) grid)
  in
  let select results =
    match
      List.find_map (fun r -> Option.map (fun v -> (v, r)) r.won) results
    with
    | Some (v, r) ->
      Option.iter (fun sink -> List.iter sink r.proofs) proof_sink;
      v
    | None ->
      Inconclusive { attempts = List.concat_map (fun r -> r.atts) results }
  in
  let jobs =
    match exec with
    | In_domain -> []
    | On_pool p -> [ ("jobs", Obs.Trace.Int (Sched.Pool.size p)) ]
  in
  (* engine.verify stays a trace-only span: an aggregate row under
     "engine." would be counted as a strategy attempt *)
  let verdict =
    Obs.Trace.with_span "engine.verify"
      ~args:(("target", Obs.Trace.String target) :: jobs)
      ~result:(fun v -> [ ("verdict", Obs.Trace.String (outcome_name v)) ])
      (fun () ->
        select
          (match exec with
          | In_domain -> in_domain (List.length grid) grid
          | On_pool p -> on_pool p))
  in
  count_verdict verdict;
  verdict

let verify_portfolio ?(config = default) ?(budget = Obs.Budget.unlimited)
    ?(certify = false) ?proof_sink ?pool ?(jobs = 1) net ~target =
  let run exec =
    run_grid exec ~config ~budget ~certify ~proof_sink
      (Pipeline.Store.create net) ~target
  in
  match pool with
  | Some p -> run (On_pool p)
  | None when jobs <= 1 -> run In_domain
  | None -> Sched.Pool.with_pool ~jobs (fun p -> run (On_pool p))

let verify ?config ?budget ?certify ?proof_sink net ~target =
  verify_portfolio ?config ?budget ?certify ?proof_sink net ~target

(* one store for every target; each target's proofs are buffered and
   handed over, with its verdict, on the calling domain in order *)
let verify_all ?(config = default) ?(budget = Obs.Budget.unlimited)
    ?(certify = false) ?proof_sink ?(jobs = 1) ?targets
    ?(emit = fun _ _ -> ()) net =
  let store = Pipeline.Store.create net in
  let targets = Option.value targets ~default:(List.map fst (Net.targets net)) in
  let remaining = Atomic.make (List.length targets) in
  let run target =
    let ways = max 1 (Atomic.fetch_and_add remaining (-1)) in
    let proofs = ref [] in
    let proof_sink = Option.map (fun _ p -> proofs := p :: !proofs) proof_sink in
    let v =
      run_grid In_domain ~config ~budget:(Obs.Budget.slice budget ~ways)
        ~certify ~proof_sink store ~target
    in
    (target, v, List.rev !proofs)
  in
  let hand_over (target, v, proofs) =
    Option.iter (fun sink -> List.iter (sink target) proofs) proof_sink;
    emit target v;
    (target, v)
  in
  if jobs <= 1 then List.map (fun t -> hand_over (run t)) targets
  else List.map hand_over (Sched.Pool.map_jobs ~jobs run targets)

(* ----- cached verification ----- *)

type cache_status = Cache_hit | Cache_miss

(* The configuration digest folded into the cache key.  The budget is
   not in it: a conclusive, certified verdict holds regardless of how
   much time the run that produced it was allowed. *)
let config_digest c =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "cfg:%d:%d:%d:%d:%d:%d:%s" c.cutoff c.probe_depth
          c.enlargement_k c.enlargement_reg_limit c.recurrence_limit
          c.induction_max_k
          (Backend.spec_id (spec_of c))))

let cache_key ?(config = default) ~certify net ~target =
  let fp = Net.cone_fingerprint net (check_target net target) in
  Printf.sprintf "v:%s:%s:%b" fp (config_digest config) certify

let verify_cached ?(config = default) ?budget ?(certify = false) ~cache net
    ~target =
  let vkey = cache_key ~config ~certify net ~target in
  match Bcache.find cache vkey with
  | Some (Bcache.Proved { strategy; depth }) ->
    let v = Proved { strategy; depth } in
    count_verdict v;
    (v, Cache_hit)
  | Some (Bcache.Violated { strategy; cex }) ->
    let v = Violated { strategy; cex } in
    count_verdict v;
    (v, Cache_hit)
  | None ->
    let v = verify ~config ?budget ~certify net ~target in
    (if certify then
       match v with
       | Proved { strategy; depth } ->
         Bcache.add cache vkey (Bcache.Proved { strategy; depth })
       | Violated { strategy; cex } ->
         Bcache.add cache vkey (Bcache.Violated { strategy; cex })
       | Inconclusive _ ->
         (* never cached: an inconclusive outcome is circumstance
            (budget, limits), not a fact about the cone *)
         ());
    (v, Cache_miss)

let exhausted = function
  | Proved _ | Violated _ -> false
  | Inconclusive { attempts } ->
    List.exists (fun a -> String.equal a.reason budget_reason) attempts

let cert_failed = function
  | Proved _ | Violated _ -> None
  | Inconclusive { attempts } ->
    List.find_map
      (fun a ->
        if String.starts_with ~prefix:cert_fail_reason a.reason
        then Some (a.strategy ^ ": " ^ a.reason)
        else None)
      attempts
