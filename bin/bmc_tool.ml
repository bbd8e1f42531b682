(* bmc-check: bounded model checking with optional diameter-bound
   completeness.

     bmc-check circuit.bench --target po0 --depth 20
     bmc-check circuit.bench --target po0 --complete
     bmc-check circuit.bench --complete --timeout 10                  *)

module Net = Netlist.Net

(* One target's BMC run to [depth], certified with [certify]: an
   answer whose check fails is withheld as [Error (what, msg)].  The
   certificate comes back for --proof. *)
let check_target net ~certify ~budget ~depth target =
  let cert = if certify then Some (Bmc.new_cert ()) else None in
  let outcome = Bmc.check ?cert ~budget net ~target ~depth in
  let failed what = Result.map_error (fun msg -> (what, msg)) in
  let checked =
    match (outcome, cert) with
    | Bmc.Hit cex, Some _ ->
      failed "counterexample"
        (Core.Certify.check_cex net (List.assoc target (Net.targets net)) cex)
    | Bmc.No_hit d, Some c ->
      failed "no-hit answer" (Core.Certify.check_no_hit ~depth:d c)
    | _ -> Ok ()
  in
  (Result.map (fun () -> outcome) checked, cert)

(* the depth that makes the check complete, if the bound is useful *)
let complete_depth net target =
  let b = Core.Bound.target_named net target in
  if Core.Sat_bound.is_huge b.Core.Bound.bound then Error b
  else Ok (b, b.Core.Bound.bound - 1)

(* Without --target: every target, across --jobs worker domains, one
   line each in target order whatever the --jobs; the wall-clock
   budget is shared (one deadline for the whole batch). *)
let run_all net certify budget jobs complete depth =
  let check (t, _) =
    match if complete then Result.map snd (complete_depth net t) else Ok depth with
    | Error _ -> None
    | Ok depth -> Some (fst (check_target net ~certify ~budget ~depth t))
  in
  let targets = Net.targets net in
  let results = Sched.Pool.map_jobs ~jobs check targets in
  let tag = if certify then " [certified]" else "" in
  let violated = ref 0 in
  let unknown = ref 0 in
  List.iter2
    (fun (t, _) r ->
      let unknown_line msg =
        incr unknown;
        Format.printf "%-24s UNKNOWN: %s@." t msg
      in
      match r with
      | None -> unknown_line "no practically useful diameter bound"
      | Some (Ok (Bmc.Hit cex)) ->
        incr violated;
        Format.printf "%-24s HIT at time %d%s@." t cex.Bmc.depth tag
      | Some (Ok (Bmc.No_hit d)) ->
        Format.printf "%-24s no hit to depth %d%s@." t d tag
      | Some (Ok (Bmc.Unknown { after; why })) ->
        unknown_line (Printf.sprintf "%s after depth %d" why after)
      | Some (Error (_, msg)) -> unknown_line ("certification failed: " ^ msg))
    targets results;
  if !violated > 0 then Cli.violated
  else if !unknown > 0 then Cli.inconclusive
  else Cli.ok

let run file target depth complete certify proof vcd budget jobs stats () =
  let net = Cli.load_bench file in
  let certify = certify || proof <> None in
  if Net.targets net = [] then Cli.die Cli.usage_error "netlist has no targets";
  let code =
    match target with
    | None ->
      if vcd <> None || proof <> None then
        Cli.die Cli.usage_error "--vcd/--proof need a single --target";
      run_all net certify budget jobs complete depth
    | Some target -> (
      let depth =
        if not complete then depth
        else
          match complete_depth net target with
          | Error b ->
            Cli.die Cli.inconclusive
              "no practically useful diameter bound for %s (cone of %d \
               registers); try --depth"
              target b.Core.Bound.coi_regs
          | Ok (b, depth) ->
            Format.printf "diameter bound %a: checking to depth %d is complete@."
              Core.Sat_bound.pp b.Core.Bound.bound depth;
            depth
      in
      let outcome, cert = check_target net ~certify ~budget ~depth target in
      let dump_proof () =
        match (proof, cert) with
        | Some path, Some c ->
          let text = Sat.Proof.to_string c.Bmc.proof in
          if Obs.Fileout.write_or_warn ~what:"proof" path text then
            Format.printf "proof written to %s@." path
        | _ -> ()
      in
      match outcome with
      | Error (what, msg) ->
        (* an answer that fails certification is withheld: report
           inconclusive (exit 3), never a wrong verdict *)
        Format.eprintf "certification of the %s FAILED: %s@." what msg;
        Format.printf "target %s: answer withheld (certification failed).@."
          target;
        Cli.inconclusive
      | Ok (Bmc.Hit cex) ->
        Format.printf "target %s HIT at time %d%s@." target cex.Bmc.depth
          (if certify then " (certified: replays on the netlist)"
           else
             Printf.sprintf " (replay: %b)"
               (Bmc.replay net (List.assoc target (Net.targets net)) cex));
        (match vcd with
        | Some path ->
          let text = Textio.Vcd.dump net (Bmc.frames_of_cex net cex) in
          if Obs.Fileout.write_or_warn ~what:"waveform" path text then
            Format.printf "waveform written to %s@." path
        | None -> ());
        List.iter
          (fun (v, t, value) ->
            match Net.node net v with
            | Net.Input name -> Format.printf "  %s@%d = %b@." name t value
            | Net.Const | Net.And _ | Net.Reg _ | Net.Latch _ -> ())
          (List.sort compare cex.Bmc.inputs);
        dump_proof ();
        Cli.violated
      | Ok (Bmc.No_hit d) ->
        let tag = if certify then " (certified: DRUP checked)" else "" in
        if complete then Format.printf "no hit to depth %d: PROVED.%s@." d tag
        else Format.printf "no hit to depth %d (bounded result only).%s@." d tag;
        dump_proof ();
        Cli.ok
      | Ok (Bmc.Unknown { after; why }) ->
        Format.printf "%s after depth %d: result UNKNOWN.@." why after;
        Cli.inconclusive)
  in
  Cli.emit_stats stats;
  code

open Cmdliner

let file =
  Arg.(
    required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:".bench netlist")

let target =
  Arg.(
    value
    & opt (some string) None
    & info [ "target" ] ~docv:"NAME" ~doc:"Target to check (default: all)")

let depth =
  Arg.(value & opt int 20 & info [ "depth" ] ~docv:"N" ~doc:"BMC depth")

let complete =
  Arg.(
    value & flag
    & info [ "complete" ]
        ~doc:"Derive the depth from the structural diameter bound, turning \
              the bounded check into a proof")

let vcd =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"FILE" ~doc:"Dump the counterexample as a VCD waveform")

let cmd =
  let doc = "bounded model checking with diameter-bound completeness" in
  Cmd.v
    (Cmd.info "bmc-check" ~doc)
    Term.(
      const run $ file $ target $ depth $ complete $ Cli.certify
      $ Cli.proof_file $ vcd $ Cli.budget $ Cli.jobs $ Cli.stats $ Cli.setup)

let () = exit (Cli.main cmd)
