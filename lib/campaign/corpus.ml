module Net = Netlist.Net
module Engine = Core.Engine

type outcome =
  | Proved
  | Violated
  | Timeout
  | Inconclusive
  | Malformed of { line : int option; msg : string }
  | Crashed of string

type item = {
  path : string;
  targets : int;
  outcome : outcome;
}

type summary = {
  items : item list;
  proved : int;
  violated : int;
  timeout : int;
  inconclusive : int;
  malformed : int;
  crashed : int;
}

let schema =
  [
    "corpus.files";
    "corpus.proved";
    "corpus.violated";
    "corpus.timeout";
    "corpus.inconclusive";
    "corpus.malformed";
    "corpus.crashed";
  ]

let () = Obs.Stats.declare schema

let outcome_name = function
  | Proved -> "proved"
  | Violated -> "violated"
  | Timeout -> "timeout"
  | Inconclusive -> "inconclusive"
  | Malformed _ -> "malformed"
  | Crashed _ -> "crashed"

let pp_outcome ppf = function
  | Malformed { line; msg } ->
    let pos = match line with Some l -> Printf.sprintf "line %d: " l | None -> "" in
    Format.fprintf ppf "malformed (%s%s)" pos msg
  | Crashed msg -> Format.fprintf ppf "crashed (%s)" msg
  | o -> Format.pp_print_string ppf (outcome_name o)

let is_problem path =
  Filename.check_suffix path ".bench" || Filename.check_suffix path ".aag"

(* Deterministic walk: entries of each directory visited in sorted
   order, so the item list (and hence the whole report) is independent
   of filesystem enumeration order. *)
let walk root =
  let rec go acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.fold_left (fun acc name -> go acc (Filename.concat path name)) acc
    else if is_problem path then path :: acc
    else acc
  in
  List.rev (go [] root)

let load path =
  if Filename.check_suffix path ".aag" then Textio.Aiger.parse_file path
  else Textio.Bench_io.parse_file path

(* The per-problem exception barrier: nothing a single problem does —
   malformed input, a crashing strategy, an expired budget — escapes
   as an exception; every failure mode is a tallied outcome and the
   walk continues. *)
let run_problem ~config ~mk_budget ~certify path =
  let targets = ref 0 in
  let outcome =
    Obs.span "corpus.file" ~args:[ ("file", Obs.Trace.String path) ]
    @@ fun () ->
    match load path with
    | exception Textio.Parse_error { line; msg } ->
      Malformed { line = Some line; msg }
    | exception Sys_error msg -> Malformed { line = None; msg }
    | net -> (
      match
        let budget : Obs.Budget.t = mk_budget () in
        targets := List.length (Net.targets net);
        List.map snd (Engine.verify_all ~config ~budget ~certify net)
      with
      | exception e -> Crashed (Printexc.to_string e)
      | verdicts ->
        let has p = List.exists p verdicts in
        if has (function Engine.Violated _ -> true | _ -> false) then Violated
        else if has Engine.exhausted then Timeout
        else if has (function Engine.Inconclusive _ -> true | _ -> false) then
          Inconclusive
        else Proved (* vacuously so for a target-free problem *))
  in
  { path; targets = !targets; outcome }

let tally items =
  let count p = List.length (List.filter (fun i -> p i.outcome) items) in
  let s =
    {
      items;
      proved = count (function Proved -> true | _ -> false);
      violated = count (function Violated -> true | _ -> false);
      timeout = count (function Timeout -> true | _ -> false);
      inconclusive = count (function Inconclusive -> true | _ -> false);
      malformed = count (function Malformed _ -> true | _ -> false);
      crashed = count (function Crashed _ -> true | _ -> false);
    }
  in
  Obs.Stats.count "corpus.files" (List.length items);
  Obs.Stats.count "corpus.proved" s.proved;
  Obs.Stats.count "corpus.violated" s.violated;
  Obs.Stats.count "corpus.timeout" s.timeout;
  Obs.Stats.count "corpus.inconclusive" s.inconclusive;
  Obs.Stats.count "corpus.malformed" s.malformed;
  Obs.Stats.count "corpus.crashed" s.crashed;
  s

let run ?(jobs = 1) ?(config = Engine.default) ?(mk_budget = fun () -> Obs.Budget.unlimited)
    ?(certify = false) paths =
  let solve = run_problem ~config ~mk_budget ~certify in
  let items =
    if jobs <= 1 then List.map solve paths
    else
      Sched.Pool.with_pool ~jobs (fun pool ->
          Sched.Pool.try_map pool solve paths)
      |> List.map2
           (fun path -> function
             | Ok item -> item
             | Error e ->
               (* barrier of last resort: [run_problem] catches its own
                  exceptions, but a worker-level failure must still be
                  a tallied item, not a dead walk *)
               {
                 path;
                 targets = 0;
                 outcome = Crashed (Printexc.to_string e);
               })
           paths
  in
  tally items

(* exit-code contract: 0 all-ok, 1 any violated/finding (malformed and
   crashed are findings), 3 inconclusive-or-timeout only *)
let exit_code s =
  if s.violated + s.malformed + s.crashed > 0 then 1
  else if s.timeout + s.inconclusive > 0 then 3
  else 0
