module Coi = Netlist.Coi

let factor cls =
  match cls with
  | Classify.CC | Classify.AC -> Sat_bound.of_int 1
  | Classify.MC rows | Classify.QC rows -> Sat_bound.of_int (rows + 1)
  | Classify.GC k -> Sat_bound.pow2 k

let effect cls d =
  match cls with
  | Classify.CC -> d
  | Classify.AC -> Sat_bound.add d 1
  | Classify.MC _ | Classify.QC _ | Classify.GC _ -> Sat_bound.mul d (factor cls)

let bound_for analysis cone =
  let comps = analysis.Classify.components in
  (* refine factors by the cone: only the rows/cells a target can
     observe contribute (a shared analysis then agrees with a
     per-cone analysis) *)
  let refined c =
    let members () = List.filter (Coi.mem cone) comps.(c).Classify.regs in
    match comps.(c).Classify.cls with
    | Classify.MC _ ->
      let keys =
        List.sort_uniq compare
          (List.filter_map
             (fun v -> Hashtbl.find_opt analysis.Classify.cell_key v)
             (members ()))
      in
      Classify.MC (max 1 (List.length keys))
    | Classify.QC _ -> Classify.QC (max 1 (List.length (members ())))
    | (Classify.CC | Classify.AC | Classify.GC _) as cls -> cls
  in
  (* components whose state elements the target's sequential cone
     reaches, pruned at constant components (a stuck register shields
     whatever feeds it): the walk starts from the components of the
     state elements the target reads combinationally *)
  let in_cone = Hashtbl.create 16 in
  let rec reach c =
    if not (Hashtbl.mem in_cone c) then begin
      Hashtbl.replace in_cone c ();
      if comps.(c).Classify.cls <> Classify.CC then
        List.iter reach comps.(c).Classify.deps
    end
  in
  List.iter
    (fun v -> Option.iter reach (Hashtbl.find_opt analysis.Classify.of_reg v))
    (Coi.leaves cone);
  (* levelize over the restricted DAG; clustering can in principle
     create dependency cycles, in which case the affected components
     saturate (sound: the composition diverges) *)
  let level = Hashtbl.create 16 in
  let visiting = Hashtbl.create 16 in
  let cyclic = ref false in
  let rec level_of c =
    match Hashtbl.find_opt level c with
    | Some l -> l
    | None ->
      if Hashtbl.mem visiting c then begin
        cyclic := true;
        0
      end
      else begin
        Hashtbl.replace visiting c ();
        let deps =
          List.filter (fun d -> Hashtbl.mem in_cone d) comps.(c).Classify.deps
        in
        let l =
          if comps.(c).Classify.cls = Classify.CC then 0
          else 1 + List.fold_left (fun acc d -> max acc (level_of d)) 0 deps
        in
        Hashtbl.remove visiting c;
        Hashtbl.replace level c l;
        l
      end
  in
  Hashtbl.iter (fun c () -> ignore (level_of c)) in_cone;
  if !cyclic then Sat_bound.huge
  else begin
    let max_level = Hashtbl.fold (fun _ l acc -> max acc l) level 0 in
    (* per level: additive step if any acyclic component, then the
       product of the sequential factors *)
    let by_level = Array.make (max_level + 1) [] in
    Hashtbl.iter (fun c l -> by_level.(l) <- c :: by_level.(l)) level;
    let d = ref (Sat_bound.of_int 1) in
    for l = 1 to max_level do
      let has_ac =
        List.exists (fun c -> comps.(c).Classify.cls = Classify.AC) by_level.(l)
      in
      let g =
        List.fold_left
          (fun acc c -> Sat_bound.mul acc (factor (refined c)))
          (Sat_bound.of_int 1) by_level.(l)
      in
      if has_ac then d := Sat_bound.add !d 1;
      d := Sat_bound.mul !d g
    done;
    !d
  end
