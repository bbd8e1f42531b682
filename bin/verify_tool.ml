(* diam-verify: the push-button transformation-based verification
   driver.

     diam-verify circuit.bench --target po0
     diam-verify circuit.bench               # every target
     diam-verify circuit.bench --timeout 60  # shared deadline         *)

module Net = Netlist.Net

let run file target cutoff certify proof vcd budget jobs stats () =
  let net = Cli.load_bench file in
  let certify = certify || proof <> None in
  let targets =
    match target with
    | Some t -> [ t ]
    | None -> List.map fst (Net.targets net)
  in
  if targets = [] then Cli.die Cli.usage_error "netlist has no targets";
  let config = { Core.Engine.default with Core.Engine.cutoff } in
  let violated = ref 0 in
  let inconclusive = ref 0 in
  (* each target gets a fair share of whatever deadline remains *)
  let remaining = ref (List.length targets) in
  (* one pool shared by every target's portfolio run; verdicts and
     verdict lines are identical to --jobs 1 (rank-based selection) *)
  let pool = if jobs > 1 then Some (Sched.Pool.create ~jobs ()) else None in
  Fun.protect ~finally:(fun () -> Option.iter Sched.Pool.shutdown pool)
  @@ fun () ->
  List.iter
    (fun t ->
      let slice = Obs.Budget.slice budget ~ways:(max 1 !remaining) in
      decr remaining;
      let proof_sink =
        match proof with
        | None -> None
        | Some prefix ->
          Some
            (fun p ->
              let path = Printf.sprintf "%s.%s.drup" prefix t in
              if
                Obs.Fileout.write_or_warn ~what:"proof" path (fun oc ->
                    output_string oc (Sat.Proof.to_string p))
              then Format.printf "  proof: %s@." path)
      in
      let verdict =
        Core.Engine.verify_portfolio ~config ~budget:slice ~certify ?proof_sink
          ?pool ~jobs net ~target:t
      in
      Format.printf "%-24s %a%s@." t Core.Engine.pp_verdict verdict
        (match verdict with
        | (Core.Engine.Proved _ | Core.Engine.Violated _) when certify ->
          " [certified]"
        | _ -> "");
      match verdict with
      | Core.Engine.Violated { cex; _ } ->
        incr violated;
        (match vcd with
        | Some path ->
          let path = Printf.sprintf "%s.%s.vcd" path t in
          let text = Textio.Vcd.dump net (Bmc.frames_of_cex net cex) in
          if
            Obs.Fileout.write_or_warn ~what:"waveform" path (fun oc ->
                output_string oc text)
          then Format.printf "  waveform: %s@." path
        | None -> ())
      | Core.Engine.Proved _ -> ()
      | Core.Engine.Inconclusive _ -> incr inconclusive)
    targets;
  Cli.emit_stats stats;
  if !violated > 0 then Cli.violated
  else if !inconclusive > 0 then Cli.inconclusive
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
