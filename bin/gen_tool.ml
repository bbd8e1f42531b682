(* diam-gen: emit the synthetic benchmark designs as .bench files.

     diam-gen --design S5378 -o s5378.bench
     diam-gen --list                                                  *)

(* --all DIR: emit every built-in design, generated across --jobs
   worker domains (each design builds its own netlist, so generation
   parallelizes trivially); the "wrote ..." lines print in catalogue
   order either way *)
let run_all dir jobs =
  (match Sys.is_directory dir with
  | true -> ()
  | false -> Cli.die Cli.usage_error "%s exists and is not a directory" dir
  | exception Sys_error _ -> (
    match Sys.mkdir dir 0o755 with
    | () -> ()
    | exception Sys_error msg -> Cli.die Cli.usage_error "%s" msg));
  let names = Workload.Iscas.names @ Workload.Gp.names in
  let emit name =
    let net =
      match Workload.Iscas.by_name name with
      | net -> net
      | exception Not_found -> Workload.Gp.by_name name
    in
    let path =
      Filename.concat dir (String.lowercase_ascii name ^ ".bench")
    in
    let text = Textio.Bench_io.to_string net in
    (path, net, Obs.Fileout.write_or_warn ~what:"netlist" path text)
  in
  let results = Sched.Pool.map_jobs ~jobs emit names in
  let failed = ref 0 in
  List.iter
    (fun (path, net, ok) ->
      if ok then Format.printf "wrote %s (%a)@." path Netlist.Net.pp_stats net
      else incr failed)
    results;
  if !failed > 0 then Cli.usage_error else Cli.ok

let run design output list_them all jobs () =
  if list_them then begin
    Format.printf "ISCAS89-like (Table 1):@.";
    List.iter (Format.printf "  %s@.") Workload.Iscas.names;
    Format.printf "GP-like, two-phase latches (Table 2):@.";
    List.iter (Format.printf "  %s@.") Workload.Gp.names;
    Cli.ok
  end
  else
    match all with
    | Some dir -> run_all dir jobs
    | None ->
      (match design with
    | None -> Cli.die Cli.usage_error "give --design NAME (see --list)"
    | Some name -> (
      let net =
        match Workload.Iscas.by_name name with
        | net -> Some net
        | exception Not_found -> (
          match Workload.Gp.by_name name with
          | net -> Some net
          | exception Not_found -> None)
      in
      match net with
      | None -> Cli.die Cli.usage_error "unknown design %s (see --list)" name
      | Some net -> (
        let text = Textio.Bench_io.to_string net in
        match output with
        | Some path ->
          if Obs.Fileout.write_or_warn ~what:"netlist" path text then begin
            Format.printf "wrote %s (%a)@." path Netlist.Net.pp_stats net;
            Cli.ok
          end
          else Cli.usage_error
        | None ->
          print_string text;
          Cli.ok)))

open Cmdliner

let design =
  Arg.(
    value
    & opt (some string) None
    & info [ "design" ] ~docv:"NAME" ~doc:"Design to emit")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default stdout)")

let list_them =
  Arg.(value & flag & info [ "list" ] ~doc:"List the available designs")

let all =
  Arg.(
    value
    & opt (some string) None
    & info [ "all" ] ~docv:"DIR"
        ~doc:"Emit every built-in design into $(docv) (created if missing), \
              one <name>.bench each; with $(b,--jobs) the designs generate \
              in parallel")

let cmd =
  let doc = "emit the synthetic Table 1/2 benchmark designs as .bench" in
  Cmd.v
    (Cmd.info "diam-gen" ~doc)
    Term.(
      const run $ design $ output $ list_them $ all $ Cli.jobs $ Cli.setup)

let () = exit (Cli.main cmd)
