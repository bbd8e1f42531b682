module Net = Netlist.Net
module Lit = Netlist.Lit
module Bsim = Netlist.Bsim
module Solver = Backend

type stats = {
  rounds : int;
  const_regs : int;
  merged_regs : int;
  merged_ands : int;
  sat_checks : int;
}

(* Compose vertex maps: [first] maps netlist A to B, [second] B to C. *)
let compose_maps (first : Lit.t option array) (second : Rebuild.result) :
    Lit.t option array =
  Array.map
    (fun slot ->
      match slot with
      | None -> None
      | Some l -> (
        match second.Rebuild.map.(Lit.var l) with
        | None -> None
        | Some nl -> Some (Lit.xor_sign nl (Lit.is_neg l))))
    first

(* Structural sequential merging: registers stuck at constants, and
   duplicate registers (same next literal, same constant init). *)
let structural_redirects net =
  let redirects = Hashtbl.create 16 in
  let const_regs = ref 0 in
  let merged_regs = ref 0 in
  let by_shape = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let r = Net.reg_of net v in
      let next = r.Net.next in
      let stuck =
        (* next is the constant matching the initial value, or the
           register feeds itself *)
        match r.Net.r_init with
        | Net.Init0 when Lit.equal next Lit.false_ || Lit.equal next (Lit.make v)
          ->
          Some Lit.false_
        | Net.Init1 when Lit.equal next Lit.true_ || Lit.equal next (Lit.make v)
          ->
          Some Lit.true_
        | Net.Init0 | Net.Init1 | Net.Init_x -> None
      in
      match stuck with
      | Some c ->
        Hashtbl.replace redirects v c;
        incr const_regs
      | None -> (
        match r.Net.r_init with
        | Net.Init_x -> () (* independent nondeterminism: never merge *)
        | Net.Init0 | Net.Init1 -> (
          let key = (Lit.to_int next, r.Net.r_init) in
          match Hashtbl.find_opt by_shape key with
          | None -> Hashtbl.add by_shape key v
          | Some rep ->
            Hashtbl.replace redirects v (Lit.make rep);
            incr merged_regs)))
    (Net.regs net);
  (redirects, !const_regs, !merged_regs)

(* SAT sweeping of combinational vertices, FRAIG style.  Candidate
   classes come from reachable-state signatures; each class's
   representative is its lowest literal, the first one met in vertex
   order.  A member whose free-state word differs from its
   representative's is refuted without a SAT check; the rest are
   checked in vertex order, and each proven member is merged in the
   frame, so later cones are encoded over representatives.  Returns
   the redirects. *)
let sweep ~seed ~sim_steps ?budget ?inprocess net =
  let sigs = Bsim.signatures ~seed ~steps:sim_steps net in
  let free = Bsim.free_words ~seed net in
  let solver = Solver.create ?inprocess () in
  let frame = Encode.Frame.create solver net in
  let reps = Hashtbl.create 256 in
  let redirects = Hashtbl.create 16 in
  let merged = ref 0 in
  let checks = ref 0 in
  let refuted = ref 0 in
  let max_conflicts = Option.bind budget Obs.Budget.conflicts in
  let max_propagations = Option.bind budget Obs.Budget.propagations in
  let should_stop = Option.bind budget Obs.Budget.should_stop in
  let unsat assumptions =
    (* Unknown is NOT Unsat: a candidate whose check is cut short by
       the budget is simply not merged — dropping a merge is always
       sound *)
    Solver.solve ~assumptions ?max_conflicts ?max_propagations ?should_stop
      solver
    = Solver.Unsat
  in
  let equivalent a b =
    (* a == b iff both (a & ~b) and (~a & b) are unsatisfiable *)
    let sa = Encode.Frame.lit frame a in
    let sb = Encode.Frame.lit frame b in
    sa = sb
    || begin
      incr checks;
      unsat [ sa; Solver.negate sb ] && unsat [ Solver.negate sa; sb ]
    end
  in
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.And _ | Net.Const -> (
        (* the constant vertex participates so that semantically
           constant ANDs merge onto it *)
        let key, flipped = Bsim.canonical_signature sigs.(v) in
        let l = Lit.of_var v ~sign:flipped in
        match Hashtbl.find_opt reps key with
        | None -> Hashtbl.add reps key l
        | Some rep ->
          if not (Int64.equal (free rep) (free l)) then incr refuted
          else if equivalent rep l then begin
            (* redirect the later vertex onto the representative,
               respecting relative polarity *)
            let target = Lit.xor_sign rep (Lit.is_neg l) in
            Encode.Frame.merge frame v target;
            Hashtbl.replace redirects v target;
            incr merged
          end)
      | Net.Input _ | Net.Reg _ | Net.Latch _ -> ());
  Obs.Stats.count "com.sat_checks" !checks;
  Obs.Stats.count "com.sim_refuted" !refuted;
  (redirects, !merged, !checks)

let run ?(seed = 0x5eed) ?(sim_steps = 31) ?(max_rounds = 8) ?budget ?inprocess net =
  let identity = Array.init (Net.num_vars net) (fun v -> Some (Lit.make v)) in
  let expired () =
    match budget with
    | Some b when Obs.Budget.expired b ->
      Obs.Budget.note_exhausted ~budget:b "com";
      true
    | _ -> false
  in
  let rec go map current (s : stats) =
    if s.rounds >= max_rounds || expired () then ({ Rebuild.net = current; map }, s)
    else begin
      let structural, cr, mr = structural_redirects current in
      let swept, ma, sc =
        if Hashtbl.length structural = 0 then
          sweep ~seed:(seed + s.rounds) ~sim_steps ?budget ?inprocess current
        else (Hashtbl.create 0, 0, 0)
      in
      let s = { s with sat_checks = s.sat_checks + sc } in
      let redirect v =
        match Hashtbl.find_opt structural v with
        | Some l -> Some l
        | None -> Hashtbl.find_opt swept v
      in
      if Hashtbl.length structural = 0 && Hashtbl.length swept = 0 then
        ({ Rebuild.net = current; map }, s)
      else begin
        let step = Rebuild.copy ~redirect current in
        go (compose_maps map step) step.Rebuild.net
          {
            s with
            rounds = s.rounds + 1;
            const_regs = s.const_regs + cr;
            merged_regs = s.merged_regs + mr;
            merged_ands = s.merged_ands + ma;
          }
      end
    end
  in
  (* initial cleanup pass: COI restriction + re-strash *)
  let first = Rebuild.copy net in
  go (compose_maps identity first) first.Rebuild.net
    {
      rounds = 0;
      const_regs = 0;
      merged_regs = 0;
      merged_ands = 0;
      sat_checks = 0;
    }
