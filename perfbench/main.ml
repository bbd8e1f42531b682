(* The verifier's benchmark: one workload per run, timed end to end.

     perfbench --workload tables|ladder|serve|race|arms --seed N
               --seconds S --trace 0|1

   A run sets its inputs up from the seed, then repeats whole rounds of
   the workload's operations while another round fits in [--seconds]
   (and until at least 100 operations ran), checks every output against the
   explicit-state search in {!Explicit} and against properties the
   method must have, and prints one JSON line: the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1].  See
   README.md for the workloads, the metrics and what moves what. *)

module Net = Netlist.Net
module Stats = Obs.Stats
module Engine = Core.Engine

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload tables|ladder|serve|race|arms --seed N \
     --seconds S --trace 0|1";
  exit 2

let opts =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

let opt name = match List.assoc_opt name opts with Some v -> v | None -> usage ()

let int_opt name =
  match int_of_string_opt (opt name) with Some n -> n | None -> usage ()

let workload = opt "workload"
let seed = int_opt "seed"
let seconds = float_of_int (int_opt "seconds")
let traced = int_opt "trace" = 1

(* Every engine and pipeline call the benchmark makes runs under these
   per-call allowances and never under a deadline, so a run's solver
   work is a function of its inputs.  (Serve requests have no field for
   them.)  Each BDD cell of [race] runs until it meets the BDD
   allowance, so the allowance sets a [race] round's length: 20000
   nodes keeps it near 1.7 s, enough rounds in a run for steady
   figures, and no [tables] or [ladder] count depends on it. *)
let conflicts = 2_000
let bdd_nodes = 20_000
let budget () = Obs.Budget.create ~conflicts ~bdd_nodes ()
let min_ops = 100
let verbose = Sys.getenv_opt "PERFBENCH_VERBOSE" = Some "1"
let out_dir = Filename.concat "perfbench" "out"

(* ---------- measurement ---------- *)

let now = Stats.now

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile p = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> 0.
      in
      go ())

(* ---------- checking ---------- *)

(* one failed operation: what went wrong, printed to stderr *)
let failures = ref []

let fail_op label fmt =
  Printf.ksprintf (fun s -> failures := (label ^ ": " ^ s) :: !failures) fmt

(* a failure seen while a round ran, counted once per occurrence *)
let round_failed = ref 0

let round_fail label fmt =
  incr round_failed;
  fail_op label fmt

(* explicit-state truth per (text, target), computed once after the
   timed passes *)
let circuits : (string, Explicit.circuit) Hashtbl.t = Hashtbl.create 64
let truths : (string * string, Explicit.truth option) Hashtbl.t = Hashtbl.create 256
let covered = Hashtbl.create 256

let circuit (p : Corpus.problem) =
  match Hashtbl.find_opt circuits p.Corpus.text with
  | Some c -> c
  | None ->
    let c = Explicit.parse p.Corpus.text in
    Hashtbl.add circuits p.Corpus.text c;
    c

let truth (p : Corpus.problem) target =
  let key = (p.Corpus.text, target) in
  match Hashtbl.find_opt truths key with
  | Some t -> t
  | None ->
    let t = Explicit.explore (circuit p) target in
    Hashtbl.add truths key t;
    if t <> None then Hashtbl.replace covered (p.Corpus.label, target) ();
    t

(* A finite bound must not be below the target's true diameter (for a
   hittability bound, it must exceed the first hit). *)
let check_bound ~label p target ?(hittability = false) b =
  if not (Core.Sat_bound.is_huge b) then
    match truth p target with
    | None -> true
    | Some t ->
      let ok =
        if hittability then
          match t.Explicit.earliest_hit with Some h -> b > h | None -> true
        else b >= t.Explicit.diameter
      in
      if not ok then
        fail_op label "%s: bound %d below true diameter %d (first hit %s)" target b
          t.Explicit.diameter
          (match t.Explicit.earliest_hit with Some h -> string_of_int h | None -> "never");
      ok
  else true

let name_of_var net v =
  match Net.node net v with
  | Net.Input s -> s
  | Net.Reg r -> r.Net.r_name
  | Net.Latch l -> l.Net.l_name
  | Net.Const | Net.And _ -> ""

(* every conclusive verdict against the explicit search; a
   counterexample must replay in the benchmark's own simulator *)
let check_verdict ~label p net target v =
  match v with
  | Engine.Proved _ -> (
    match truth p target with
    | Some { Explicit.earliest_hit = Some h; _ } ->
      fail_op label "%s: proved, but hit at time %d" target h;
      false
    | _ -> true)
  | Engine.Violated { cex; _ } ->
    let inputs =
      List.map (fun (v, t, b) -> (name_of_var net v, t, b)) cex.Bmc.inputs
    in
    let init_x = List.map (fun (v, b) -> (name_of_var net v, b)) cex.Bmc.init_x in
    let ok =
      Explicit.replay (circuit p) target ~depth:cex.Bmc.depth ~inputs ~init_x
    in
    if not ok then
      fail_op label "%s: counterexample does not hit at time %d" target cex.Bmc.depth;
    ok
  | Engine.Inconclusive { attempts } ->
    List.for_all
      (fun (a : Engine.attempt) ->
        match a.Engine.bound with
        | None -> true
        | Some b ->
          let hittability =
            String.length a.Engine.strategy >= 11
            && String.sub a.Engine.strategy 0 11 = "enlargement"
          in
          check_bound ~label p target ~hittability b)
      attempts

type brief = B_proved | B_violated of int | B_unknown

let brief = function
  | Engine.Proved _ -> B_proved
  | Engine.Violated { cex; _ } -> B_violated cex.Bmc.depth
  | Engine.Inconclusive _ -> B_unknown

let contradicts a b =
  match (a, b) with
  | B_proved, B_violated _ | B_violated _, B_proved -> true
  | _ -> false

let conclusive v = brief v <> B_unknown

(* ---------- the parts of a run ---------- *)

type round = {
  wall : float;
  cpu_s : float;
  lat_ms : float list;  (** one per operation *)
  cpu_ms : float list;
      (** one per operation, when the operations run one after another;
          empty for [serve], whose requests overlap *)
  parse_ms : float list;  (** one per call of the benchmark's [parse] *)
  ops : int;
  settled : int;
  extra : (string * float) list;  (** per-layer tallies of the round *)
}

let parse_bytes = ref 0
let parse_s = ref 0.
let parse_log = ref []

(* the program's parser, timed by the benchmark *)
let parse ~op text =
  Obs.Trace.with_span ~args:[ ("op", Obs.Trace.Int op) ] "perfbench.parse" (fun () ->
      let t0 = now () in
      let net = Textio.Bench_io.parse text in
      let dt = now () -. t0 in
      parse_s := !parse_s +. dt;
      parse_log := (1e3 *. dt) :: !parse_log;
      parse_bytes := !parse_bytes + String.length text;
      net)

(* one operation inside a span carrying its id: its result, wall
   time and process CPU time, in ms *)
let timed_op ~op name f =
  Obs.Trace.with_span ~args:[ ("op", Obs.Trace.Int op) ] name (fun () ->
      let c0 = cpu () in
      let t0 = now () in
      let r = f () in
      let t1 = now () in
      (r, 1e3 *. (t1 -. t0), 1e3 *. (cpu () -. c0)))

let round_of f =
  parse_bytes := 0;
  parse_s := 0.;
  parse_log := [];
  let c0 = cpu () and t0 = now () in
  let (lat, cpu_ms), settled, extra = f () in
  let wall = now () -. t0 and cpu_s = cpu () -. c0 in
  {
    wall;
    cpu_s;
    lat_ms = lat;
    cpu_ms;
    parse_ms = List.rev !parse_log;
    ops = List.length lat;
    settled;
    extra =
      ("textio.parse_ms", 1e3 *. !parse_s)
      :: ("textio.bytes", float_of_int !parse_bytes)
      :: extra;
  }

(* How a run paces its rounds: [more] asks whether to start another,
   [start] runs just before one (untimed), [finish] takes its
   measurements. *)
type pace = { more : unit -> bool; start : unit -> unit; finish : round -> unit }

(* ---------- tables ---------- *)

let cutoff = 50

let below_cutoff (r : Core.Pipeline.report) =
  (Core.Pipeline.summarize ~cutoff r).Core.Pipeline.proved_small

type table_out = {
  design : Corpus.design;
  reports : Core.Pipeline.report list;  (** Original, COM, COM,RET,COM *)
  fold : Core.Translate.t;  (** phase front end, identity for Table 1 *)
}

let tables_round designs outs () =
  let lat = ref [] and cpu_ms = ref [] and opn = ref 0 in
  let small = Array.make 3 0 in
  let com_ms = ref 0. in
  List.iter
    (fun (d : Corpus.design) ->
      let net = parse ~op:!opn d.Corpus.problem.Corpus.text in
      let net, fold =
        if d.Corpus.gp then Core.Pipeline.phase_front net
        else (net, Core.Translate.identity)
      in
      let reports =
        List.mapi
          (fun i (name, f) ->
            let op = !opn in
            incr opn;
            (* the COM pipeline's span also covers bounding its result;
               take that share out when tracing *)
            let b0 = if traced && i = 1 then Some (Stats.snapshot ()) else None in
            let r, ms, cms = timed_op ~op ("perfbench." ^ name) f in
            (match b0 with
            | Some s0 ->
              let s1 = Stats.snapshot () in
              let span s n =
                match List.assoc_opt n s.Stats.spans with
                | Some x -> x.Stats.total_s
                | None -> 0.
              in
              com_ms :=
                !com_ms
                +. 1e3
                   *. (span s1 "pipeline.com" -. span s0 "pipeline.com"
                      -. (span s1 "bound.all_targets" -. span s0 "bound.all_targets"))
            | None -> ());
            lat := ms :: !lat;
            cpu_ms := cms :: !cpu_ms;
            small.(i) <- small.(i) + below_cutoff r;
            r)
          [
            ("original", fun () -> Core.Pipeline.original net);
            ("com", fun () -> Core.Pipeline.com ~budget:(budget ()) net);
            ("com_ret_com", fun () -> Core.Pipeline.com_ret_com ~budget:(budget ()) net);
          ]
      in
      outs := { design = d; reports; fold } :: !outs)
    designs;
  ( (List.rev !lat, List.rev !cpu_ms),
    small.(2),
    [
      ("bound.below_cutoff.original", float_of_int small.(0));
      ("bound.below_cutoff.com", float_of_int small.(1));
      ("bound.below_cutoff.com_ret_com", float_of_int small.(2));
      ("perfbench.com_report_free_ms", !com_ms);
    ] )

(* every finite bound of every pipeline, translated back to the
   latch design for Table 2, against the explicit search *)
let tables_check outs =
  let bad = ref 0 in
  List.iter
    (fun o ->
      let p = o.design.Corpus.problem in
      List.iter
        (fun (r : Core.Pipeline.report) ->
          let label = o.design.Corpus.name ^ "/" ^ r.Core.Pipeline.pipeline in
          let ok =
            List.for_all
              (fun (t : Core.Pipeline.target_report) ->
                check_bound ~label p t.Core.Pipeline.target
                  (o.fold.Core.Translate.apply t.Core.Pipeline.bound))
              r.Core.Pipeline.targets
            && List.length r.Core.Pipeline.targets = List.length p.Corpus.targets
          in
          if not ok then incr bad)
        o.reports)
    outs;
  !bad

(* ---------- ladder and race ---------- *)

let reference = Backend.Single (Backend.reference ())
let ladder_config = { Engine.default with Engine.backend = Some reference }

let race_config =
  {
    Engine.default with
    Engine.backend = Some (Backend.Race [ Backend.reference (); Backend.bdd_oracle () ]);
  }

let ladder_corpus () =
  Corpus.committed () @ Corpus.generated ~seed ~shuffle:true ~copies:4 ~stand_down:true ~fuzz:40

let of_families fams (ps : Corpus.problem list) =
  List.filter
    (fun (p : Corpus.problem) ->
      List.exists
        (fun f ->
          String.length p.Corpus.label > String.length f
          && String.sub p.Corpus.label 0 (String.length f + 1) = f ^ "#")
        fams)
    ps

(* Problems the sequential ladder settles at the probe and structural
   rungs, 20 of each, and 8 each of the deep counter and the
   retiming-guarded counter, where lower-ranked BDD cells hold the
   race up. *)
let race_corpus () =
  of_families
    [ "shallow-counter"; "dual-pipeline"; "ring"; "queue" ]
    (Corpus.generated ~seed ~shuffle:false ~copies:20 ~stand_down:false ~fuzz:0)
  @ of_families [ "deep-counter"; "ret-guarded" ]
      (Corpus.generated ~seed:(seed + 1) ~shuffle:false ~copies:8 ~stand_down:false ~fuzz:0)
  |> Array.of_list
  |> fun a ->
  Render.shuffle (Workload.Rng.create seed) a;
  Array.to_list a

type verdicts = (string * string, Engine.verdict * Net.t) Hashtbl.t

let verify_round ~verify problems (seen : verdicts) () =
  let lat = ref [] and cpu_ms = ref [] and opn = ref 0 and settled = ref 0 in
  List.iter
    (fun (p : Corpus.problem) ->
      let net = parse ~op:!opn p.Corpus.text in
      List.iter
        (fun target ->
          let op = !opn in
          incr opn;
          let v, ms, cms = timed_op ~op "perfbench.verify" (fun () -> verify net target) in
          lat := ms :: !lat;
          cpu_ms := cms :: !cpu_ms;
          if conclusive v then incr settled;
          let key = (p.Corpus.label, target) in
          match Hashtbl.find_opt seen key with
          | None ->
            if verbose then
              Format.eprintf "%s %s %.1fms %a@." p.Corpus.label target ms Engine.pp_verdict v;
            Hashtbl.add seen key (v, net)
          | Some (v0, _) ->
            (* the same work must reach the same verdict every round *)
            if brief v0 <> brief v then round_fail p.Corpus.label "%s: verdict changed between rounds" target)
        p.Corpus.targets)
    problems;
  ((List.rev !lat, List.rev !cpu_ms), !settled, [])

let verify_check problems (seen : verdicts) ~reference =
  let bad = ref 0 in
  List.iter
    (fun (p : Corpus.problem) ->
      List.iter
        (fun target ->
          let v, net = Hashtbl.find seen (p.Corpus.label, target) in
          let ok = check_verdict ~label:p.Corpus.label p net target v in
          let ok =
            match reference with
            | None -> ok
            | Some r ->
              let rv = r p target in
              if contradicts (brief rv) (brief v) then begin
                fail_op p.Corpus.label "%s: contradicts the sequential ladder" target;
                false
              end
              else ok
          in
          if not ok then incr bad)
        p.Corpus.targets)
    problems;
  !bad

(* ---------- serve ---------- *)

(* One session serves the whole run, round after round.  A round is a
   cold block (every cold target, its cone renamed apart from earlier
   rounds so it is not answered yet), a drain, three quarters of those
   cones again as renamed and rebuilt netlists, and a drain.  The
   drains make every repeat find its cone answered and every cold
   request find it not, so hits and misses are the same on every
   run. *)

type item = { net : Net.t; target : int  (** index into the net's targets *) }

let serve_items () =
  List.concat_map
    (fun (p : Corpus.problem) ->
      let net = Textio.Bench_io.parse p.Corpus.text in
      List.mapi (fun i _ -> { net; target = i }) p.Corpus.targets)
    (Corpus.generated ~seed ~shuffle:false ~copies:3 ~stand_down:false ~fuzz:18)

type kind = Cold of int | Repeat of int | Drain

type line = { kind : kind; text : string; problem : Corpus.problem option; target : string }

let json_string s = Obs.Report.to_string (Obs.Report.String s)

let verify_line ~id (p : Corpus.problem) target =
  Printf.sprintf
    "{\"id\":%s,\"op\":\"verify\",\"netlist\":%s,\"target\":%s,\"certify\":true}"
    (json_string id) (json_string p.Corpus.text) (json_string target)

(* round [r]'s stream; its cones are named apart by the [q<r>_] prefix *)
let serve_lines items r =
  let rng = Workload.Rng.create ((seed * 7919) + r) in
  let render ?rng ~tag i it =
    let text, targets = Render.render ~prefix:(Printf.sprintf "q%d_" r) ~tag ?rng it.net in
    ( { Corpus.label = Printf.sprintf "serve-%d" i; text; targets },
      List.nth targets it.target )
  in
  let verify kind id (p, t) = { kind; text = verify_line ~id p t; problem = Some p; target = t } in
  let drain id =
    {
      kind = Drain;
      text = Printf.sprintf "{\"id\":%s,\"op\":\"drain\"}" (json_string id);
      problem = None;
      target = "";
    }
  in
  let n = List.length items in
  let cold =
    List.mapi
      (fun i it ->
        verify (Cold i) (Printf.sprintf "c%d.%d" r i) (render ~tag:(Printf.sprintf "s%d_" seed) i it))
      items
  in
  let repeats =
    List.filteri (fun i _ -> i < 3 * n / 4) items
    |> List.mapi (fun i it ->
           verify (Repeat i) (Printf.sprintf "w%d.%d" r i)
             (render ~rng:(Workload.Rng.split rng) ~tag:(Printf.sprintf "w%d_" i) i it))
  in
  Array.of_list
    (cold @ [ drain (Printf.sprintf "d%d.0" r) ] @ repeats @ [ drain (Printf.sprintf "d%d.1" r) ])

let serve_config = { Serve.Server.default_config with Serve.Server.jobs = 2; cache_mb = 64 }

(* The client is a closed loop: it hands the session its next line only
   while fewer than [window] lines await their response, two per
   worker (one running, one queued so no worker waits on the client),
   so a request's latency is its own service time and at most one
   other's, not its place in a backlog. *)
let window = 2 * serve_config.Serve.Server.jobs

let field body k = match body with Obs.Report.Obj kv -> List.assoc_opt k kv | _ -> None

let verdict_fields body =
  List.map (field body) [ "verdict"; "strategy"; "depth"; "time"; "reason" ]

(* round 0's lines and answers, which the checks read; later rounds
   must answer exactly as round 0 did *)
type serve_state = { mutable first : (line * Obs.Report.json) array }

let serve_run items (st : serve_state) (d : pace) =
  let lines = ref [||] and handed = ref [||] and next = ref 0 in
  let responses = ref [] and round_no = ref (-1) in
  (* responses arrive on the workers' domains *)
  let lock = Mutex.create () and answered = Condition.create () and received = ref 0 in
  let t0 = ref 0. and c0 = ref 0. in
  let finish_round () =
    let wall = now () -. !t0 and cpu_s = cpu () -. !c0 in
    let ls = !lines in
    let resp = Array.of_list (List.rev_map (fun (text, at) -> (Obs.Report.parse text, at)) !responses) in
    if Array.length resp <> Array.length ls then
      round_fail "serve" "%d responses to %d requests" (Array.length resp) (Array.length ls);
    let resp = Array.sub resp 0 (min (Array.length resp) (Array.length ls)) in
    let lat = ref [] and settled = ref 0 in
    Array.iteri
      (fun i (body, at) ->
        let l = ls.(i) in
        let want =
          match field (Obs.Report.parse l.text) "id" with
          | Some (Obs.Report.String s) -> s
          | _ -> ""
        in
        (match field body "id" with
        | Some (Obs.Report.String id) when id = want -> ()
        | _ -> round_fail "serve" "response %d does not answer %s" i want);
        if field body "error" <> None then round_fail "serve" "error response to %s" want;
        if l.kind <> Drain then begin
          lat := (1e3 *. (at -. !handed.(i))) :: !lat;
          (match field body "verdict" with
          | Some (Obs.Report.String ("proved" | "violated")) -> incr settled
          | _ -> ());
          if !round_no > 0 && verdict_fields (snd st.first.(i)) <> verdict_fields body then
            round_fail "serve" "%s answers unlike round 0" want
        end)
      resp;
    if !round_no = 0 then st.first <- Array.mapi (fun i (body, _) -> (ls.(i), body)) resp;
    d.finish
      {
        wall;
        cpu_s;
        lat_ms = List.rev !lat;
        cpu_ms = [];
        parse_ms = [];
        ops = List.length !lat;
        settled = !settled;
        extra = [];
      }
  in
  let input () =
    if !next < Array.length !lines then begin
      let i = !next in
      incr next;
      Mutex.lock lock;
      while i - !received >= window do
        Condition.wait answered lock
      done;
      Mutex.unlock lock;
      !handed.(i) <- now ();
      Some !lines.(i).text
    end
    else begin
      (* the round's last drain has been answered: every worker idles *)
      if !round_no >= 0 then finish_round ();
      if not (d.more ()) then None
      else begin
        incr round_no;
        lines := serve_lines items !round_no;
        handed := Array.make (Array.length !lines) 0.;
        responses := [];
        received := 0;
        next := 1;
        d.start ();
        t0 := now ();
        c0 := cpu ();
        !handed.(0) <- !t0;
        Some !lines.(0).text
      end
    end
  in
  let output text =
    let at = now () in
    Mutex.lock lock;
    responses := (text, at) :: !responses;
    incr received;
    Condition.signal answered;
    Mutex.unlock lock
  in
  ignore (Serve.Server.run_session serve_config ~input ~output () : Serve.Server.ending)

let serve_check (st : serve_state) ~reference =
  let bad = ref 0 in
  Array.iter
    (fun (l, body) ->
      match (l.kind, l.problem) with
      | Drain, _ | _, None -> ()
      | (Cold i | Repeat i), Some p ->
        let label = Printf.sprintf "%s/%s" p.Corpus.label l.target in
        let ok = ref true in
        (* a repeated cone answers as its first request did *)
        (match l.kind with
        | Repeat _ ->
          Array.iter
            (fun (l0, b0) ->
              if l0.kind = Cold i && verdict_fields b0 <> verdict_fields body then begin
                fail_op label "repeat answers differently from its first request";
                ok := false
              end)
            st.first
        | Cold _ | Drain -> ());
        let b =
          match (field body "verdict", field body "time") with
          | Some (Obs.Report.String "proved"), _ -> B_proved
          | Some (Obs.Report.String "violated"), Some (Obs.Report.Int t) -> B_violated t
          | _ -> B_unknown
        in
        (match b with
        | B_proved -> (
          match truth p l.target with
          | Some { Explicit.earliest_hit = Some h; _ } ->
            fail_op label "proved, but hit at time %d" h;
            ok := false
          | _ -> ())
        | B_violated t -> (
          match Explicit.hit_at (circuit p) l.target ~time:t with
          | Some false ->
            fail_op label "violated at %d, where no hit is possible" t;
            ok := false
          | Some true | None -> ())
        | B_unknown -> ());
        if contradicts (brief (reference p l.target)) b then begin
          fail_op label "contradicts the sequential ladder";
          ok := false
        end;
        if not !ok then incr bad)
    st.first;
  !bad

(* ---------- runs ---------- *)

let span_total snap name =
  match List.assoc_opt name snap.Stats.spans with Some s -> s.Stats.total_s | None -> 0.

let span_calls snap name =
  match List.assoc_opt name snap.Stats.spans with Some s -> s.Stats.calls | None -> 0

let counter snap name =
  match List.assoc_opt name snap.Stats.counters with Some n -> n | None -> 0

(* every per-layer metric, from Stats deltas, the trace and the
   benchmark's own tallies *)
let layer_metrics ~s0 ~s1 ~events (r : round) =
  let ms n = 1e3 *. (span_total s1 n -. span_total s0 n) in
  let calls n = float_of_int (span_calls s1 n - span_calls s0 n) in
  let cnt n = float_of_int (counter s1 n - counter s0 n) in
  let extra n = Option.value ~default:0. (List.assoc_opt n r.extra) in
  let solve_spans = [ "sat.solve"; "bmc.solve"; "recurrence.solve"; "induction.solve" ] in
  let backend_ms b =
    List.fold_left
      (fun acc (e : Obs.Trace.event) ->
        if List.mem e.Obs.Trace.name solve_spans
           && List.assoc_opt "backend" e.Obs.Trace.args = Some (Obs.Trace.String b)
        then acc +. (e.Obs.Trace.dur_us /. 1e3)
        else acc)
      0. events
  in
  (* per-request busy time in the serve session, by correlation id *)
  let serve_exec_ms =
    List.fold_left
      (fun acc (c : Obs.Trace_report.corr_row) ->
        if String.length c.Obs.Trace_report.c_corr > 4
           && String.sub c.Obs.Trace_report.c_corr 0 4 = "req-"
        then acc +. (c.Obs.Trace_report.c_busy_us /. 1e3)
        else acc)
      0.
      (Obs.Trace_report.corr_table (Obs.Trace_report.forest events))
  in
  let hits = cnt "serve.cache.hits" and misses = cnt "serve.cache.misses" in
  let cells = cnt "sched.jobs_completed" in
  let com_ms =
    (if workload = "tables" then extra "perfbench.com_report_free_ms" else ms "pipeline.com")
    +. ms "pipeline.com-ret-com.com1" +. ms "pipeline.com-ret-com.com2"
  in
  [
    ("textio.parse_ms", "ms", extra "textio.parse_ms");
    ("textio.bytes", "bytes", extra "textio.bytes");
    ("transform.com_ms", "ms", com_ms);
    ("transform.ret_ms", "ms", ms "pipeline.com-ret-com.ret");
    ("transform.phase_ms", "ms", ms "pipeline.phase");
    ("transform.com_sat_solves", "count", extra "transform.com_sat_solves");
    ("bound.ms", "ms", ms "bound.all_targets" +. ms "bound.target");
    ("bound.targets", "count", cnt "bound.targets_analyzed");
    ("bound.below_cutoff.original", "count", extra "bound.below_cutoff.original");
    ("bound.below_cutoff.com", "count", extra "bound.below_cutoff.com");
    ("bound.below_cutoff.com_ret_com", "count", extra "bound.below_cutoff.com_ret_com");
    ("engine.probe_ms", "ms", ms "engine.bmc-probe");
    ("engine.structural_ms", "ms", ms "engine.structural-bound");
    ("engine.com_ms", "ms", ms "engine.com+bound");
    ("engine.com_ret_com_ms", "ms", ms "engine.com-ret-com+bound");
    ("engine.enlargement_ms", "ms", ms "engine.enlargement+bound");
    ("engine.recurrence_ms", "ms", ms "engine.recurrence-bcoi");
    ("engine.induction_ms", "ms", ms "engine.k-induction");
    ( "engine.attempts",
      "count",
      List.fold_left
        (fun acc (n, _) ->
          if String.length n > 7 && String.sub n 0 7 = "engine." then acc +. calls n else acc)
        0. s1.Stats.spans );
    ("bmc.solve_ms", "ms", ms "bmc.solve");
    ("bmc.depths", "count", calls "bmc.solve");
    ("encode.clauses", "count", cnt "encode.clauses");
    ("encode.vars", "count", cnt "encode.vars");
    ("sat.solve_ms", "ms", List.fold_left (fun acc n -> acc +. ms n) 0. solve_spans);
    ("sat.solves", "count", cnt "sat.solves");
    ("sat.conflicts", "count", cnt "sat.conflicts");
    ("sat.propagations", "count", cnt "sat.propagations");
    ("sat.decisions", "count", cnt "sat.decisions");
    ("sat.simplify_ms", "ms", ms "sat.simplify");
    ("backend.reference_ms", "ms", backend_ms "reference");
    ("backend.bdd_ms", "ms", backend_ms "bdd");
    ("certify.drup_ms", "ms", ms "certify.drup");
    ("certify.replay_ms", "ms", ms "certify.replay");
    ("certify.translate_ms", "ms", ms "certify.translate");
    ("certify.ok", "count", cnt "engine.cert_ok");
    ("sched.cells_run", "count", cells);
    ("sched.cells_cancelled", "count", cnt "budget.cancelled");
    ("sched.useful_ratio", "ratio", if cells > 0. then float_of_int r.settled /. cells else 0.);
    ("serve.exec_ms", "ms", serve_exec_ms);
    ( "serve.wait_ms",
      "ms",
      if workload = "serve" then List.fold_left ( +. ) 0. r.lat_ms -. serve_exec_ms else 0. );
    ("serve.cache.hits", "count", hits);
    ("serve.cache.misses", "count", misses);
    ("serve.cache.hit_ratio", "ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ("serve.coalesced", "count", cnt "serve.coalesced");
  ]

(* Timings are summarised by minima over the rounds.  Every round runs
   the same operations in the same order, and a machine whose
   neighbours only ever slow it down, for stretches of seconds, makes
   each operation's fastest time over the rounds the figure that moves
   least from run to run. *)
let fastest = List.fold_left Float.min infinity

(* operations by round -> rounds by operation *)
let rec transpose = function
  | [] | [] :: _ -> []
  | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

(* each operation's fastest latency over the rounds, in ms *)
let op_latencies rs = List.map fastest (transpose (List.map (fun r -> r.lat_ms) rs))

let sum = List.fold_left ( +. ) 0.

(* A round's wall and CPU time, with each operation and each parse at
   its fastest over the rounds, and the rest of the round (the
   benchmark's own glue) at its fastest too.  Where the operations
   overlap ([serve]), the fastest round. *)
let pass_time rs =
  match rs with
  | { cpu_ms = []; _ } :: _ ->
    (fastest (List.map (fun r -> r.wall) rs), fastest (List.map (fun r -> r.cpu_s) rs))
  | _ ->
    let composed total pieces =
      let timed r = sum (List.concat_map (fun piece -> piece r) pieces) /. 1e3 in
      (sum (List.concat_map (fun piece -> List.map fastest (transpose (List.map piece rs))) pieces)
      /. 1e3)
      +. fastest (List.map (fun r -> total r -. timed r) rs)
    in
    ( composed (fun r -> r.wall) [ (fun r -> r.lat_ms); (fun r -> r.parse_ms) ],
      composed (fun r -> r.cpu_s) [ (fun r -> r.cpu_ms) ] )

(* Untimed hygiene before every round: start from a compacted heap, so
   garbage a previous round left is not collected on this one's time. *)
let between_rounds () = Gc.compact ()

(* Another round while it would still end within [seconds] (judged by
   the fastest so far), and until [min_ops] operations ran. *)
let room t0 rs = now () -. t0 +. List.fold_left (fun acc r -> Float.min acc r.wall) infinity rs <= seconds

let plain_pace () =
  let t0 = now () and rs = ref [] and ops = ref 0 in
  ( {
      more = (fun () -> !rs = [] || room t0 !rs || !ops < min_ops);
      start = between_rounds;
      finish =
        (fun r ->
          if verbose then Printf.eprintf "round %.3f s wall, %.3f s cpu\n%!" r.wall r.cpu_s;
          rs := r :: !rs;
          ops := !ops + r.ops);
    },
    fun () -> List.rev !rs )

(* Untraced and traced rounds alternate; a traced round runs with the
   trace on, and its per-layer metrics come from the Stats deltas over
   it and its events read back. *)
let traced_pace () =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat out_dir (Printf.sprintf "%s-%d.trace.json" workload seed) in
  let t0 = now () and plain = ref [] and traced_rs = ref [] in
  let started = ref 0 and s0 = ref (Stats.snapshot ()) in
  ( {
      more = (fun () -> !plain = [] || !traced_rs = [] || room t0 !plain);
      start =
        (fun () ->
          between_rounds ();
          if !started mod 2 = 1 then begin
            s0 := Stats.snapshot ();
            Obs.Trace.start path
          end;
          incr started);
      finish =
        (fun r ->
          if Obs.Trace.active () then begin
            Obs.Trace.stop ();
            let s1 = Stats.snapshot () in
            traced_rs :=
              (r, layer_metrics ~s0:!s0 ~s1 ~events:(Obs.Trace.read_file path) r) :: !traced_rs
          end
          else plain := r :: !plain);
    },
    fun () -> (List.rev !plain, List.rev !traced_rs) )

let print_result ~attempted ~failed metrics =
  let field (name, unit, v) =
    let num =
      if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
      else Printf.sprintf "%.9g" v
    in
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) num (json_string unit)
  in
  (* every operation the checks refuted is counted in [failed]; the
     rest passed them, so [correct] speaks for those *)
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed
    (String.concat ", " (List.map field metrics))

(* ---------- workloads ---------- *)

type instance = {
  run : pace -> unit;
  check : unit -> int;  (** operations refuted, after the passes *)
  recount : unit -> (string * float) list;  (** extra traced-run counts *)
  close : unit -> unit;
}

let each_round round (d : pace) =
  while d.more () do
    d.start ();
    d.finish (round_of round)
  done

(* COM's SAT checks are not in the Stats registry; count them by
   running the same COM steps once more, untimed. *)
let tables_recount designs =
  let solves = ref 0 in
  List.iter
    (fun (d : Corpus.design) ->
      let net = Textio.Bench_io.parse d.Corpus.problem.Corpus.text in
      let net = if d.Corpus.gp then fst (Core.Pipeline.phase_front net) else net in
      let first, s1 = Transform.Com.run ~budget:(budget ()) net in
      let retimed = Transform.Retime.run first.Transform.Rebuild.net in
      let _, s2 =
        Transform.Com.run ~budget:(budget ())
          retimed.Transform.Retime.rebuilt.Transform.Rebuild.net
      in
      (* COM pipeline, then COM,RET,COM's two sweeps *)
      solves := !solves + (2 * s1.Transform.Com.sat_checks) + s2.Transform.Com.sat_checks)
    designs;
  [ ("transform.com_sat_solves", float_of_int !solves) ]

(* the certified sequential ladder's verdict, for cross-checks *)
let reference_verdicts = Hashtbl.create 128

let reference_verdict (p : Corpus.problem) target =
  let key = (p.Corpus.text, target) in
  match Hashtbl.find_opt reference_verdicts key with
  | Some v -> v
  | None ->
    let v =
      Engine.verify ~config:ladder_config ~budget:(budget ()) ~certify:true
        (Textio.Bench_io.parse p.Corpus.text) ~target
    in
    Hashtbl.add reference_verdicts key v;
    v

let instance () =
  match workload with
  | "tables" ->
    let designs = Corpus.tables ~seed in
    let outs = ref [] in
    {
      run =
        each_round (fun () ->
            outs := [];
            tables_round designs outs ());
      check = (fun () -> tables_check !outs);
      recount = (fun () -> tables_recount designs);
      close = ignore;
    }
  | "ladder" ->
    let problems = ladder_corpus () in
    let seen = Hashtbl.create 256 in
    {
      run =
        each_round
        @@ verify_round problems seen ~verify:(fun net target ->
            Engine.verify ~config:ladder_config ~budget:(budget ()) ~certify:true net ~target);
      check = (fun () -> verify_check problems seen ~reference:None);
      recount = (fun () -> []);
      close = ignore;
    }
  | "race" ->
    let problems = race_corpus () in
    let seen = Hashtbl.create 256 in
    let pool = Sched.Pool.create ~jobs:2 () in
    {
      run =
        each_round
        @@ verify_round problems seen ~verify:(fun net target ->
            Engine.verify_portfolio ~config:race_config ~budget:(budget ()) ~certify:true
              ~pool net ~target);
      check = (fun () -> verify_check problems seen ~reference:(Some reference_verdict));
      recount = (fun () -> []);
      close = (fun () -> Sched.Pool.shutdown pool);
    }
  | "serve" ->
    let items = serve_items () in
    (* rendering is the client's work: round 0's share counts as set-up *)
    ignore (serve_lines items 0 : line array);
    let st = { first = [||] } in
    {
      run = serve_run items st;
      check = (fun () -> serve_check st ~reference:reference_verdict);
      recount =
        (fun () ->
          (* the server parses inside its workers; time the same parses
             here, once per request of a round *)
          parse_s := 0.;
          parse_bytes := 0;
          Array.iter
            (fun (l, _) ->
              Option.iter (fun (p : Corpus.problem) -> ignore (parse ~op:0 p.Corpus.text)) l.problem)
            st.first;
          [ ("textio.parse_ms", 1e3 *. !parse_s); ("textio.bytes", float_of_int !parse_bytes) ]);
      close = ignore;
    }
  | _ -> usage ()

(* [--workload arms] prints the reference figures of README: the race
   problems verified once each by the sequential ladder, by the
   two-worker portfolio with the reference backend alone, and by the
   two-worker reference+BDD race. *)
let arms () =
  let problems = race_corpus () in
  let pool = Sched.Pool.create ~jobs:2 () in
  let arm name verify =
    let t0 = now () and settled = ref 0 and n = ref 0 in
    List.iter
      (fun (p : Corpus.problem) ->
        let net = Textio.Bench_io.parse p.Corpus.text in
        List.iter
          (fun target ->
            incr n;
            if conclusive (verify net target) then incr settled)
          p.Corpus.targets)
      problems;
    Printf.printf "%-32s %8.3f s  %d/%d settled\n%!" name (now () -. t0) !settled !n
  in
  let portfolio config net target =
    Engine.verify_portfolio ~config ~budget:(budget ()) ~certify:true ~pool net ~target
  in
  arm "sequential Engine.verify" (fun net target ->
      Engine.verify ~config:ladder_config ~budget:(budget ()) ~certify:true net ~target);
  arm "portfolio, reference, 2 workers" (portfolio ladder_config);
  arm "portfolio, race, 2 workers" (portfolio race_config);
  Sched.Pool.shutdown pool

(* set up [setups] times, keep the last, report the median *)
let setups = 11

let setup () =
  let rec go k times =
    let t0 = now () in
    let inst = instance () in
    let times = (now () -. t0) :: times in
    if k = 1 then (inst, median times)
    else begin
      inst.close ();
      go (k - 1) times
    end
  in
  go setups []

let () =
  if workload = "arms" then begin
    arms ();
    exit 0
  end;
  let inst, setup_s = setup () in
  let finish ~rounds:rs ~metrics =
    let checked = inst.check () in
    inst.close ();
    if verbose then
      Printf.eprintf "explicit-state search covered %d targets\n" (Hashtbl.length covered);
    let attempted = List.fold_left (fun acc r -> acc + r.ops) 0 rs in
    (* a refuted operation fails in every round that ran it *)
    let failed = min attempted ((checked * List.length rs) + !round_failed) in
    List.iter prerr_endline (List.rev !failures);
    print_result ~attempted ~failed (metrics ())
  in
  if not traced then begin
    let d, result = plain_pace () in
    inst.run d;
    let rs = result () in
    let lat = op_latencies rs and pass_s, cpu_s = pass_time rs in
    finish ~rounds:rs ~metrics:(fun () ->
        [
          ("setup_s", "s", setup_s);
          ("pass_s", "s", pass_s);
          ("cpu_s", "s", cpu_s);
          ("op_p50_ms", "ms", percentile 0.5 lat);
          ("op_p90_ms", "ms", percentile 0.9 lat);
          ("settled", "count", float_of_int (List.hd rs).settled);
          ("peak_rss_mb", "MB", peak_rss_mb ());
        ])
  end
  else begin
    let d, result = traced_pace () in
    inst.run d;
    let plain, traced_rs = result () in
    let extra = inst.recount () in
    let per_round = List.map snd traced_rs in
    let metrics () =
      List.map
        (fun (name, unit, _) ->
          let v =
            match List.assoc_opt name extra with
            | Some v -> v
            | None ->
              median
                (List.map
                   (fun ms ->
                     List.fold_left
                       (fun acc (n, _, v) -> if n = name then v else acc)
                       0. ms)
                   per_round)
          in
          (name, unit, v))
        (List.hd per_round)
      @ [
          ( "obs.trace_overhead_s",
            "s",
            fst (pass_time (List.map fst traced_rs)) -. fst (pass_time plain) );
        ]
    in
    finish ~rounds:(plain @ List.map fst traced_rs) ~metrics
  end
