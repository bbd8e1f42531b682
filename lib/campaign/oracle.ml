module Engine = Core.Engine

type kind =
  | Disagreement of {
      cell_a : string;
      verdict_a : string;
      cell_b : string;
      verdict_b : string;
    }
  | Cert_failure of { cell : string; detail : string }
  | Budget_violation of { cell : string; verdict : string }
  | Crash of { cell : string; detail : string }

type finding = { target : string; kind : kind }

let schema =
  [ "oracle.cells"; "oracle.findings"; "oracle.disagreements";
    "oracle.cert_failures"; "oracle.budget_violations"; "oracle.crashes" ]

let () = Obs.Stats.declare schema

let kind_name = function
  | Disagreement _ -> "disagreement"
  | Cert_failure _ -> "cert-failure"
  | Budget_violation _ -> "budget-violation"
  | Crash _ -> "crash"

let pp_finding ppf { target; kind } =
  match kind with
  | Disagreement { cell_a; verdict_a; cell_b; verdict_b } ->
    Format.fprintf ppf "%s: disagreement %s=%s vs %s=%s" target cell_a
      verdict_a cell_b verdict_b
  | Cert_failure { cell; detail } ->
    Format.fprintf ppf "%s: cert-failure in %s (%s)" target cell detail
  | Budget_violation { cell; verdict } ->
    Format.fprintf ppf "%s: budget-violation in %s (concluded %s on an expired budget)"
      target cell verdict
  | Crash { cell; detail } ->
    Format.fprintf ppf "%s: crash in %s (%s)" target cell detail

(* Campaign ladder config: fuzz designs are built small enough that
   every strategy concludes quickly under these limits, so a
   disagreement is a bug, not a tuning artifact. *)
let config =
  {
    Engine.default with
    Engine.probe_depth = 40;
    recurrence_limit = 16;
    induction_max_k = 8;
    enlargement_reg_limit = 12;
  }

(* exact agreement modulo timing: strategy and depth/time must match,
   and inconclusive attempt logs must match reason-for-reason *)
let agree a b =
  String.equal (Engine.verdict_brief a) (Engine.verdict_brief b)

type cell = {
  cell : string;
  outcome : (Engine.verdict, string) result;
}

(* the cells whose re-evaluation can reproduce a finding of this
   kind: a shrinker's keep predicate need not pay for the rest of the
   matrix (in particular the portfolio cell's pool) on every trial *)
let cells_of_kind = function
  | Disagreement { cell_a; cell_b; _ } -> [ cell_a; cell_b ]
  | Cert_failure { cell; _ } | Budget_violation { cell; _ } | Crash { cell; _ }
    ->
    [ cell ]

let run_cells ?(jobs = 2) ?only ?mk_budget net ~target =
  let eval (name, f) =
    Obs.Stats.count "oracle.cells" 1;
    match f () with
    | v -> { cell = name; outcome = Ok v }
    | exception e -> { cell = name; outcome = Error (Printexc.to_string e) }
  in
  let wanted (name, _) =
    match only with None -> true | Some names -> List.mem name names
  in
  (* per-eval allowance for the live cells; fresh each call so a
     deadline (if the caller uses one) starts at the eval, not at
     matrix construction.  Never applied to "expired-budget", whose
     budget is the experiment. *)
  let budget () = Option.map (fun mk -> mk ()) mk_budget in
  List.map eval
    (List.filter wanted
    [
      ( "ladder",
        fun () -> Engine.verify ~config ?budget:(budget ()) ~certify:true net ~target
      );
      ( "ladder-noinproc",
        (* the inprocessing-off cell is just another backend
           configuration: a reference-backend instance created with
           inprocessing pinned off.  Each solver fixes the choice at
           creation, so a concurrent campaign (or serve request)
           running with inprocessing ON never observes this cell's
           choice — there is no global toggle left to race on *)
        fun () ->
          Engine.verify
            ~config:
              {
                config with
                Engine.backend =
                  Some (Backend.Single (Backend.reference ~inprocess:false ()));
              }
            ?budget:(budget ()) ~certify:true net ~target );
      ( "portfolio",
        fun () ->
          Engine.verify_portfolio ~config ?budget:(budget ()) ~certify:true
            ~jobs net ~target );
      ( "expired-budget",
        fun () ->
          Engine.verify ~config
            ~budget:(Obs.Budget.create ~timeout_s:0. ())
            net ~target );
    ])

let check ~target cells =
  let findings = ref [] in
  let note counter kind =
    Obs.Stats.count "oracle.findings" 1;
    Obs.Stats.count counter 1;
    findings := { target; kind } :: !findings
  in
  List.iter
    (fun c ->
      match c.outcome with
      | Error detail ->
        note "oracle.crashes" (Crash { cell = c.cell; detail })
      | Ok v when String.equal c.cell "expired-budget" ->
        (* an already-expired budget must stand every strategy down:
           any conclusive verdict is resource accounting gone wrong *)
        (match v with
        | Engine.Proved _ | Engine.Violated _ ->
          note "oracle.budget_violations"
            (Budget_violation
               { cell = c.cell; verdict = Engine.verdict_brief v })
        | Engine.Inconclusive _ -> ())
      | Ok v -> (
        match Engine.cert_failed v with
        | Some detail ->
          note "oracle.cert_failures" (Cert_failure { cell = c.cell; detail })
        | None -> ()))
    cells;
  (* verdict agreement across the matrix (the expired cell is excluded:
     its whole point is to answer differently) *)
  (match
     List.filter_map
       (fun c ->
         match c.outcome with
         | Ok v when not (String.equal c.cell "expired-budget") ->
           Some (c.cell, v)
         | _ -> None)
       cells
   with
  | [] -> ()
  | (ref_cell, ref_v) :: rest ->
    List.iter
      (fun (cell, v) ->
        if not (agree ref_v v) then
          note "oracle.disagreements"
            (Disagreement
               {
                 cell_a = ref_cell;
                 verdict_a = Engine.verdict_brief ref_v;
                 cell_b = cell;
                 verdict_b = Engine.verdict_brief v;
               }))
      rest);
  (* one finding per (target, kind): three cells failing certification
     the same way are one bug, and the shrinker need not re-minimize
     the same design once per cell *)
  let seen = Hashtbl.create 4 in
  List.filter
    (fun f ->
      let key = kind_name f.kind in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    (List.rev !findings)

let run ?jobs ?mk_budget net ~target =
  let cells = run_cells ?jobs ?mk_budget net ~target in
  let findings = check ~target cells in
  (findings, cells)
