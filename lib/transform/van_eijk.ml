module Net = Netlist.Net
module Lit = Netlist.Lit
module Bsim = Netlist.Bsim
module Solver = Backend

type stats = {
  iterations : int;
  merged : int;
  sat_checks : int;
}

(* candidate classes (canonical-polarity literals keyed by canonical
   signature), over the constant, AND and register vertices *)
let candidate_classes ~seed ~sim_steps net =
  let sigs = Bsim.signatures ~seed ~steps:sim_steps net in
  let classes = Hashtbl.create 256 in
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.And _ | Net.Const | Net.Reg _ ->
        let key, flipped = Bsim.canonical_signature sigs.(v) in
        let lit = Lit.of_var v ~sign:flipped in
        Hashtbl.replace classes key
          (lit :: Option.value (Hashtbl.find_opt classes key) ~default:[])
      | Net.Input _ | Net.Latch _ -> ());
  Hashtbl.fold
    (fun _ members acc ->
      match List.sort Lit.compare members with
      | [] | [ _ ] -> acc
      | sorted -> ref sorted :: acc)
    classes []

(* equality of two netlist literals at times [0 .. depth - 1] from the
   initial states, with free nondeterministic initial values *)
let base_case_ok ~depth solver0 unroll0 checks a b =
  List.for_all
    (fun t ->
      let la = Encode.Unroll.lit_at unroll0 a t in
      let lb = Encode.Unroll.lit_at unroll0 b t in
      incr checks;
      Solver.solve ~assumptions:[ la; Solver.negate lb ] solver0 = Solver.Unsat
      && Solver.solve ~assumptions:[ Solver.negate la; lb ] solver0
         = Solver.Unsat)
    (List.init depth (fun t -> t))

let run ?(seed = 0xe11c) ?(sim_steps = 31) ?(depth = 2) original =
  if Net.num_latches original > 0 then
    invalid_arg "Van_eijk.run: register netlists only";
  if depth < 1 then invalid_arg "Van_eijk.run: depth must be positive";
  let base, _ = Com.run original in
  let net = base.Rebuild.net in
  let checks = ref 0 in
  (* base case filtering is iteration-invariant: do it once *)
  let solver0 = Solver.create () in
  let unroll0 = Encode.Unroll.create solver0 net in
  let classes =
    List.filter_map
      (fun cls ->
        match !cls with
        | rep :: rest ->
          let kept =
            List.filter
              (fun m -> base_case_ok ~depth solver0 unroll0 checks rep m)
              rest
          in
          if kept = [] then None
          else begin
            cls := rep :: kept;
            Some cls
          end
        | [] -> None)
      (candidate_classes ~seed ~sim_steps net)
  in
  (* inductive refinement *)
  let iterations = ref 0 in
  let changed = ref true in
  while !changed && classes <> [] do
    incr iterations;
    changed := false;
    let solver = Solver.create () in
    (* [depth]-induction: frames 0 .. depth, consecutive states tied by
       the transition functions; hypothesis on the first [depth]
       frames, consecution checked on the last *)
    let frames = Encode.Frame.chain solver net depth in
    (* induction hypothesis: every surviving equivalence holds on the
       first [depth] frames *)
    List.iter
      (fun cls ->
        match !cls with
        | rep :: rest ->
          for i = 0 to depth - 1 do
            let lr = Encode.Frame.lit frames.(i) rep in
            List.iter
              (fun m ->
                let lm = Encode.Frame.lit frames.(i) m in
                Solver.add_clause solver [ Solver.negate lr; lm ];
                Solver.add_clause solver [ lr; Solver.negate lm ])
              rest
          done
        | [] -> ())
      classes;
    (* consecution: each member must still equal its representative on
       the final frame *)
    List.iter
      (fun cls ->
        match !cls with
        | rep :: rest ->
          let lr = Encode.Frame.lit frames.(depth) rep in
          let kept =
            List.filter
              (fun m ->
                let lm = Encode.Frame.lit frames.(depth) m in
                incr checks;
                let equal =
                  Solver.solve ~assumptions:[ lr; Solver.negate lm ] solver
                  = Solver.Unsat
                  && Solver.solve ~assumptions:[ Solver.negate lr; lm ] solver
                     = Solver.Unsat
                in
                if not equal then changed := true;
                equal)
              rest
          in
          cls := rep :: kept
        | [] -> ())
      classes
  done;
  (* merge the survivors *)
  let redirects = Hashtbl.create 16 in
  let merged = ref 0 in
  List.iter
    (fun cls ->
      match !cls with
      | rep :: rest ->
        List.iter
          (fun m ->
            if not (Hashtbl.mem redirects (Lit.var m)) then begin
              Hashtbl.replace redirects (Lit.var m)
                (Lit.xor_sign rep (Lit.is_neg m));
              incr merged
            end)
          rest
      | [] -> ())
    classes;
  let step =
    if Hashtbl.length redirects = 0 then
      { Rebuild.net; map = Array.map (fun x -> x) base.Rebuild.map }
    else Rebuild.copy ~redirect:(Hashtbl.find_opt redirects) net
  in
  (* final combinational cleanup *)
  let final, _ = Com.run step.Rebuild.net in
  let compose first second =
    Array.map
      (function
        | None -> None
        | Some l -> (
          match second.Rebuild.map.(Lit.var l) with
          | None -> None
          | Some nl -> Some (Lit.xor_sign nl (Lit.is_neg l))))
      first
  in
  let map =
    if Hashtbl.length redirects = 0 then compose base.Rebuild.map final
    else compose (compose base.Rebuild.map step) final
  in
  ( { Rebuild.net = final.Rebuild.net; map },
    { iterations = !iterations; merged = !merged; sat_checks = !checks } )
