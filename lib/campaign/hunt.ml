module Fuzz = Workload.Fuzz
module Shrink = Workload.Shrink

type shrink_info = {
  original_size : int;
  shrunk_size : int;
  repro : string option;
}

type case_report = {
  label : string;
  species : string;
  size : int;
  verdicts : (string * string) list;
  findings : (Oracle.finding * shrink_info) list;
}

type report = {
  seed : int;
  count : int;
  cases : case_report list;
  findings : int;
}

let schema = [ "fuzz.cases"; "fuzz.findings"; "fuzz.shrink_accepted" ]
let () = Obs.Stats.declare schema

let same_kind a b =
  match (a, b) with
  | Oracle.Disagreement _, Oracle.Disagreement _
  | Oracle.Cert_failure _, Oracle.Cert_failure _
  | Oracle.Budget_violation _, Oracle.Budget_violation _
  | Oracle.Crash _, Oracle.Crash _ ->
    true
  | _ -> false

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* slug for repro file names: kind without the payload *)
let kind_slug k = Oracle.kind_name k

let shrink_finding ~oracle_jobs ~repro_dir ~label (case : Fuzz.case)
    (f : Oracle.finding) =
  (* the finding must survive a candidate for it to be accepted: same
     target, same kind of disagreement/failure.  Only the implicated
     cells are re-evaluated — paying for the whole matrix (notably the
     portfolio cell's pool) on every shrink trial is pure overhead —
     and each trial runs under a conflicts-only budget: deterministic
     (no wall clock), but an injected fault that sends every strategy
     to its limits costs milliseconds instead of minutes per trial *)
  let only = Oracle.cells_of_kind f.Oracle.kind in
  let mk_budget () = Obs.Budget.create ~conflicts:4_000 () in
  let keep net =
    let cells =
      Oracle.run_cells ~jobs:oracle_jobs ~only ~mk_budget net
        ~target:f.Oracle.target
    in
    let findings = Oracle.check ~target:f.Oracle.target cells in
    List.exists
      (fun (g : Oracle.finding) ->
        String.equal g.Oracle.target f.Oracle.target
        && same_kind g.Oracle.kind f.Oracle.kind)
      findings
  in
  let r = Shrink.run ~keep case.Fuzz.net ~target:f.Oracle.target in
  Obs.Stats.count "fuzz.shrink_accepted" r.Shrink.accepted;
  let repro =
    match repro_dir with
    | None -> None
    | Some dir ->
      ensure_dir dir;
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-%s-%s.bench" label f.Oracle.target
             (kind_slug f.Oracle.kind))
      in
      Textio.Bench_io.write_file path r.Shrink.net;
      Some path
  in
  ( f,
    {
      original_size = r.Shrink.original_size;
      shrunk_size = r.Shrink.shrunk_size;
      repro;
    } )

let run_case ~oracle_jobs ~mk_budget ~repro_dir ~seed i =
  Obs.span "fuzz.case" (fun () ->
      match Fuzz.case ~seed i with
      | exception e ->
        (* per-case barrier: a generator crash is itself a finding,
           not a dead campaign *)
        {
          label = Printf.sprintf "%04d-?" i;
          species = "?";
          size = 0;
          verdicts = [];
          findings =
            [
              ( {
                  Oracle.target = "-";
                  kind =
                    Oracle.Crash
                      { cell = "generate"; detail = Printexc.to_string e };
                },
                { original_size = 0; shrunk_size = 0; repro = None } );
            ];
        }
      | case ->
        let targets = Netlist.Net.targets case.Fuzz.net in
        let per_target =
          List.map
            (fun (t, _) ->
              let findings, cells =
                Oracle.run ~jobs:oracle_jobs ?mk_budget case.Fuzz.net ~target:t
              in
              let verdicts =
                List.map
                  (fun (c : Oracle.cell) ->
                    ( t ^ "/" ^ c.Oracle.cell,
                      match c.Oracle.outcome with
                      | Ok v -> Core.Engine.verdict_brief v
                      | Error e -> "CRASH(" ^ e ^ ")" ))
                  cells
              in
              (findings, verdicts))
            targets
        in
        let findings = List.concat_map fst per_target in
        let verdicts = List.concat_map snd per_target in
        Obs.Stats.count "fuzz.cases" 1;
        Obs.Stats.count "fuzz.findings" (List.length findings);
        {
          label = case.Fuzz.label;
          species = Fuzz.species_name case.Fuzz.species;
          size = Shrink.size case.Fuzz.net;
          verdicts;
          findings =
            List.map
              (fun f ->
                shrink_finding ~oracle_jobs ~repro_dir ~label:case.Fuzz.label
                  case f)
              findings;
        })

let run ?(jobs = 1) ?(oracle_jobs = 2) ?mk_budget ?repro_dir ~seed ~count () =
  let indices = List.init count (fun i -> i) in
  let do_case = run_case ~oracle_jobs ~mk_budget ~repro_dir ~seed in
  let cases =
    if jobs <= 1 then List.map do_case indices
    else
      Sched.Pool.with_pool ~jobs (fun pool ->
          Sched.Pool.try_map pool do_case indices)
      |> List.map2
           (fun i -> function
             | Ok c -> c
             | Error e ->
               {
                 label = Printf.sprintf "%04d-?" i;
                 species = "?";
                 size = 0;
                 verdicts = [];
                 findings =
                   [
                     ( {
                         Oracle.target = "-";
                         kind =
                           Oracle.Crash
                             { cell = "worker"; detail = Printexc.to_string e };
                       },
                       { original_size = 0; shrunk_size = 0; repro = None } );
                   ];
               })
           indices
  in
  {
    seed;
    count;
    cases;
    findings =
      List.fold_left (fun n (c : case_report) -> n + List.length c.findings) 0 cases;
  }
