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

(* SAT sweeping of combinational vertices.  Returns redirects. *)
let sweep ~seed ~sim_steps ?budget ?inprocess net =
  let sigs = Bsim.signatures ~seed ~steps:sim_steps net in
  let classes = Hashtbl.create 256 in
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.And _ | Net.Const ->
        (* the constant vertex participates so that semantically
           constant ANDs merge onto it *)
        let key, flipped = Bsim.canonical_signature sigs.(v) in
        let lit = Lit.of_var v ~sign:flipped in
        Hashtbl.replace classes key
          (lit :: Option.value (Hashtbl.find_opt classes key) ~default:[])
      | Net.Input _ | Net.Reg _ | Net.Latch _ -> ());
  let solver = Solver.create ?inprocess () in
  let frame = Encode.Frame.create solver net in
  let redirects = Hashtbl.create 16 in
  let merged = ref 0 in
  let checks = ref 0 in
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
    incr checks;
    let sa = Encode.Frame.lit frame a in
    let sb = Encode.Frame.lit frame b in
    unsat [ sa; Solver.negate sb ] && unsat [ Solver.negate sa; sb ]
  in
  Hashtbl.iter
    (fun _key members ->
      match List.sort Lit.compare members with
      | [] | [ _ ] -> ()
      | rep :: rest ->
        List.iter
          (fun l ->
            if equivalent rep l then begin
              (* redirect the later vertex onto the representative,
                 respecting relative polarity *)
              let target = Lit.xor_sign rep (Lit.is_neg l) in
              Hashtbl.replace redirects (Lit.var l) target;
              incr merged
            end)
          rest)
    classes;
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
  let rec go round map current const_regs merged_regs merged_ands sat_checks =
    if round >= max_rounds || expired () then
      ( { Rebuild.net = current; map },
        {
          rounds = round;
          const_regs;
          merged_regs;
          merged_ands;
          sat_checks;
        } )
    else begin
      let structural, cr, mr = structural_redirects current in
      let swept, ma, sc =
        if Hashtbl.length structural = 0 then
          sweep ~seed:(seed + round) ~sim_steps ?budget ?inprocess current
        else (Hashtbl.create 0, 0, 0)
      in
      let redirect v =
        match Hashtbl.find_opt structural v with
        | Some l -> Some l
        | None -> Hashtbl.find_opt swept v
      in
      if Hashtbl.length structural = 0 && Hashtbl.length swept = 0 then
        ( { Rebuild.net = current; map },
          {
            rounds = round;
            const_regs;
            merged_regs;
            merged_ands;
            sat_checks;
          } )
      else begin
        let step = Rebuild.copy ~redirect current in
        go (round + 1) (compose_maps map step) step.Rebuild.net
          (const_regs + cr) (merged_regs + mr) (merged_ands + ma)
          (sat_checks + sc)
      end
    end
  in
  (* initial cleanup pass: COI restriction + re-strash *)
  let first = Rebuild.copy net in
  go 0 (compose_maps identity first) first.Rebuild.net 0 0 0 0
