(* bmc-check: bounded model checking with optional diameter-bound
   completeness.

     bmc-check circuit.bench --target po0 --depth 20
     bmc-check circuit.bench --target po0 --complete
     bmc-check circuit.bench --complete --timeout 10                  *)

module Net = Netlist.Net

(* --jobs N without --target: check every target, scheduled across N
   worker domains.  Result lines print in target order regardless of
   completion order, so the output is reproducible; the wall-clock
   budget is shared (one deadline for the whole batch). *)
let run_all net certify budget jobs complete depth =
  let targets = Net.targets net in
  let check (t, tlit) =
    let depth =
      if complete then begin
        let b = Core.Bound.target_named net t in
        if Core.Sat_bound.is_huge b.Core.Bound.bound then None
        else Some (b.Core.Bound.bound - 1)
      end
      else Some depth
    in
    match depth with
    | None -> `Unknown "no practically useful diameter bound"
    | Some depth -> (
      let cert = if certify then Some (Bmc.new_cert ()) else None in
      match Bmc.check ?cert ~budget net ~target:t ~depth with
      | Bmc.Hit cex -> (
        match
          if certify then Core.Certify.check_cex net tlit cex else Ok ()
        with
        | Ok () -> `Hit cex.Bmc.depth
        | Error msg -> `Unknown ("certification failed: " ^ msg))
      | Bmc.No_hit d -> (
        match
          match cert with
          | Some c -> Core.Certify.check_no_hit ~depth:d c
          | None -> Ok ()
        with
        | Ok () -> `No_hit d
        | Error msg -> `Unknown ("certification failed: " ^ msg))
      | Bmc.Unknown { after; why } ->
        `Unknown (Printf.sprintf "%s after depth %d" why after))
  in
  let results =
    Sched.Pool.with_pool ~jobs (fun pool -> Sched.Pool.map pool check targets)
  in
  let tag = if certify then " [certified]" else "" in
  let violated = ref 0 in
  let unknown = ref 0 in
  List.iter2
    (fun (t, _) r ->
      match r with
      | `Hit d ->
        incr violated;
        Format.printf "%-24s HIT at time %d%s@." t d tag
      | `No_hit d -> Format.printf "%-24s no hit to depth %d%s@." t d tag
      | `Unknown msg ->
        incr unknown;
        Format.printf "%-24s UNKNOWN: %s@." t msg)
    targets results;
  if !violated > 0 then Cli.violated
  else if !unknown > 0 then Cli.inconclusive
  else Cli.ok

let run file target depth complete certify proof vcd budget jobs stats () =
  let net = Cli.load_bench file in
  let certify = certify || proof <> None in
  if jobs > 1 && target = None then begin
    if vcd <> None || proof <> None then
      Cli.die Cli.usage_error "--vcd/--proof need a single --target";
    if Net.targets net = [] then
      Cli.die Cli.usage_error "netlist has no targets";
    let code = run_all net certify budget jobs complete depth in
    Cli.emit_stats stats;
    code
  end
  else
  let target =
    match (target, Net.targets net) with
    | Some t, _ -> t
    | None, (t, _) :: _ -> t
    | None, [] -> Cli.die Cli.usage_error "netlist has no targets"
  in
  let depth =
    if complete then begin
      let b = Core.Bound.target_named net target in
      if Core.Sat_bound.is_huge b.Core.Bound.bound then
        Cli.die Cli.inconclusive
          "no practically useful diameter bound for %s (cone of %d \
           registers); try --depth"
          target b.Core.Bound.coi_regs;
      Format.printf "diameter bound %a: checking to depth %d is complete@."
        Core.Sat_bound.pp b.Core.Bound.bound
        (b.Core.Bound.bound - 1);
      b.Core.Bound.bound - 1
    end
    else depth
  in
  let finish () = Cli.emit_stats stats in
  let cert = if certify then Some (Bmc.new_cert ()) else None in
  let dump_proof () =
    match (proof, cert) with
    | Some path, Some c ->
      if
        Obs.Fileout.write_or_warn ~what:"proof" path (fun oc ->
            output_string oc (Sat.Proof.to_string c.Bmc.proof))
      then Format.printf "proof written to %s@." path
    | _ -> ()
  in
  (* an answer that fails certification is withheld: report
     inconclusive (exit 3), never a wrong verdict *)
  let withhold what msg =
    Format.eprintf "certification of the %s FAILED: %s@." what msg;
    Format.printf "target %s: answer withheld (certification failed).@."
      target;
    finish ();
    Cli.inconclusive
  in
  match Bmc.check ?cert ~budget net ~target ~depth with
  | Bmc.Hit cex -> (
    let tlit = List.assoc target (Net.targets net) in
    let checked =
      if certify then Core.Certify.check_cex net tlit cex
      else Ok ()
    in
    match checked with
    | Error msg -> withhold "counterexample" msg
    | Ok () ->
      Format.printf "target %s HIT at time %d%s@." target cex.Bmc.depth
        (if certify then " (certified: replays on the netlist)"
         else Printf.sprintf " (replay: %b)"
             (Bmc.replay net tlit cex));
      (match vcd with
      | Some path ->
        let text = Textio.Vcd.dump net (Bmc.frames_of_cex net cex) in
        if
          Obs.Fileout.write_or_warn ~what:"waveform" path (fun oc ->
              output_string oc text)
        then Format.printf "waveform written to %s@." path
      | None -> ());
      List.iter
        (fun (v, t, value) ->
          match Net.node net v with
          | Net.Input name -> Format.printf "  %s@%d = %b@." name t value
          | Net.Const | Net.And _ | Net.Reg _ | Net.Latch _ -> ())
        (List.sort compare cex.Bmc.inputs);
      dump_proof ();
      finish ();
      Cli.violated)
  | Bmc.No_hit d -> (
    let checked =
      match cert with
      | Some c -> Core.Certify.check_no_hit ~depth:d c
      | None -> Ok ()
    in
    match checked with
    | Error msg -> withhold "no-hit answer" msg
    | Ok () ->
      let tag = if certify then " (certified: DRUP checked)" else "" in
      if complete then Format.printf "no hit to depth %d: PROVED.%s@." d tag
      else Format.printf "no hit to depth %d (bounded result only).%s@." d tag;
      dump_proof ();
      finish ();
      Cli.ok)
  | Bmc.Unknown { after; why } ->
    Format.printf "%s after depth %d: result UNKNOWN.@." why after;
    finish ();
    Cli.inconclusive

open Cmdliner

let file =
  Arg.(
    required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:".bench netlist")

let target =
  Arg.(
    value
    & opt (some string) None
    & info [ "target" ] ~docv:"NAME" ~doc:"Target to check (default: first)")

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
