let walk ~through_state t roots =
  let seen = Array.make (Net.num_vars t) false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      match Net.node t v with
      | Net.Const | Net.Input _ -> ()
      | Net.And (a, b) ->
        visit (Lit.var a);
        visit (Lit.var b)
      | Net.Reg r -> if through_state then visit (Lit.var r.Net.next)
      | Net.Latch l -> if through_state then visit (Lit.var l.Net.l_data)
    end
  in
  List.iter (fun l -> visit (Lit.var l)) roots;
  seen

let of_lits t roots = walk ~through_state:true t roots
let combinational t roots = walk ~through_state:false t roots

let regs_in t seen =
  let out = ref [] in
  Net.iter_nodes t (fun v _ -> if seen.(v) && Net.is_reg t v then out := v :: !out);
  List.rev !out

let size seen =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen
