(* diam-verify: the push-button transformation-based verification
   driver.

     diam-verify circuit.bench --target po0
     diam-verify circuit.bench               # every target
     diam-verify circuit.bench --timeout 60  # shared deadline         *)

module Net = Netlist.Net

let run file target cutoff certify proof vcd budget jobs stats () =
  let net = Cli.load_bench file in
  let certify = certify || proof <> None in
  if Net.targets net = [] then Cli.die Cli.usage_error "netlist has no targets";
  let config = { Core.Engine.default with Core.Engine.cutoff } in
  let proof_sink =
    Option.map
      (fun prefix t p ->
        let path = Printf.sprintf "%s.%s.drup" prefix t in
        if Obs.Fileout.write_or_warn ~what:"proof" path (Sat.Proof.to_string p)
        then Format.printf "  proof: %s@." path)
      proof
  in
  let emit t verdict =
    Format.printf "%-24s %a%s@." t Core.Engine.pp_verdict verdict
      (match verdict with
      | (Core.Engine.Proved _ | Core.Engine.Violated _) when certify ->
        " [certified]"
      | _ -> "");
    match (verdict, vcd) with
    | Core.Engine.Violated { cex; _ }, Some path ->
      let path = Printf.sprintf "%s.%s.vcd" path t in
      let text = Textio.Vcd.dump net (Bmc.frames_of_cex net cex) in
      if Obs.Fileout.write_or_warn ~what:"waveform" path text then
        Format.printf "  waveform: %s@." path
    | _ -> ()
  in
  (* one pipeline store for every target; with --jobs the targets run
     in parallel, and their lines still print in target order *)
  let verdicts =
    List.map snd
      (Core.Engine.verify_all ~config ~budget ~certify ?proof_sink ~jobs
         ?targets:(Option.map (fun t -> [ t ]) target) ~emit net)
  in
  Cli.emit_stats stats;
  let has p = List.exists p verdicts in
  if has (function Core.Engine.Violated _ -> true | _ -> false) then
    Cli.violated
  else if has (function Core.Engine.Inconclusive _ -> true | _ -> false) then
    Cli.inconclusive
  else Cli.ok

open Cmdliner

let file =
  Arg.(
    required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:".bench netlist")

let target =
  Arg.(
    value
    & opt (some string) None
    & info [ "target" ] ~docv:"NAME" ~doc:"Target to verify (default: all)")

let cutoff =
  Arg.(
    value & opt int 50
    & info [ "cutoff" ] ~docv:"N"
        ~doc:"Largest diameter bound considered BMC-dischargeable")

let vcd =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"PREFIX"
        ~doc:"Dump counterexample waveforms to PREFIX.<target>.vcd")

let cmd =
  let doc = "transformation-based verification (probe, bounds, induction)" in
  Cmd.v
    (Cmd.info "diam-verify" ~doc)
    Term.(
      const run $ file $ target $ cutoff $ Cli.certify $ Cli.proof_file $ vcd
      $ Cli.budget $ Cli.jobs $ Cli.stats $ Cli.setup)

let () = exit (Cli.main cmd)
