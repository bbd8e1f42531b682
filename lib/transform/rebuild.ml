module Net = Netlist.Net
module Lit = Netlist.Lit

type result = { net : Net.t; map : Lit.t option array }

let map_lit r l =
  match r.map.(Lit.var l) with
  | Some nl -> Lit.xor_sign nl (Lit.is_neg l)
  | None -> invalid_arg "Rebuild.map_lit: vertex not in copied cone"

let copy ?roots ?(redirect = fun _ -> None) old =
  let roots =
    match roots with
    | Some rs -> rs
    | None ->
      List.map snd (Net.outputs old)
      @ List.map snd (Net.targets old)
  in
  let fresh = Net.create ~phases:(Net.phases old) () in
  let map : Lit.t option array = Array.make (Net.num_vars old) None in
  (* resolve redirections transitively, tracking the accumulated sign *)
  let resolve v =
    let rec go v sign budget =
      if budget = 0 then failwith "Rebuild.copy: redirection cycle";
      match redirect v with
      | None -> Lit.of_var v ~sign
      | Some l -> go (Lit.var l) (sign <> Lit.is_neg l) (budget - 1)
    in
    go v false (Net.num_vars old + 1)
  in
  (* pending state-element data edges, set after their cones exist *)
  let pending = ref [] in
  (* Depth first on an explicit stack, the second fanin of an AND
     before the first, as the recursive build always created them *)
  let stack = Stack.create () in
  let signed l nl = Lit.xor_sign nl (Lit.is_neg l) in
  let built v nl =
    map.(v) <- Some nl;
    ignore (Stack.pop stack)
  in
  let build_var root =
    Stack.push root stack;
    while not (Stack.is_empty stack) do
      let v = Stack.top stack in
      match map.(v) with
      | Some _ -> ignore (Stack.pop stack)
      | None ->
        let target = resolve v in
        if Lit.var target <> v then begin
          match map.(Lit.var target) with
          | Some nl -> built v (signed target nl)
          | None -> Stack.push (Lit.var target) stack
        end
        else begin
          match Net.node old v with
          | Net.Const -> built v Lit.false_
          | Net.Input name -> built v (Net.add_input fresh name)
          | Net.And (a, b) -> (
            match (map.(Lit.var a), map.(Lit.var b)) with
            | Some na, Some nb ->
              built v (Net.add_and fresh (signed a na) (signed b nb))
            | _, None -> Stack.push (Lit.var b) stack
            | None, Some _ -> Stack.push (Lit.var a) stack)
          | Net.Reg r ->
            let nr = Net.add_reg fresh ~init:r.Net.r_init r.Net.r_name in
            pending := `Reg (nr, r.Net.next) :: !pending;
            built v nr
          | Net.Latch l ->
            let nlat =
              Net.add_latch fresh ~init:l.Net.l_init ~phase:l.Net.l_phase
                l.Net.l_name
            in
            pending := `Latch (nlat, l.Net.l_data) :: !pending;
            built v nlat
        end
    done;
    Option.get map.(root)
  in
  let build_lit l = Lit.xor_sign (build_var (Lit.var l)) (Lit.is_neg l) in
  List.iter (fun l -> ignore (build_var (Lit.var l))) roots;
  (* state-element data cones: new pending edges may appear while we
     process, so drain the worklist *)
  let rec drain () =
    match !pending with
    | [] -> ()
    | item :: rest ->
      pending := rest;
      (match item with
      | `Reg (nr, next) -> Net.set_next fresh nr (build_lit next)
      | `Latch (nlat, data) -> Net.set_latch_data fresh nlat (build_lit data));
      drain ()
  in
  drain ();
  let result = { net = fresh; map } in
  List.iter
    (fun (name, l) ->
      match map.(Lit.var l) with
      | Some _ -> Net.add_output fresh name (map_lit result l)
      | None -> ())
    (Net.outputs old);
  List.iter
    (fun (name, l) ->
      match map.(Lit.var l) with
      | Some _ -> Net.add_target fresh name (map_lit result l)
      | None -> ())
    (Net.targets old);
  result
