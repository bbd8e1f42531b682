let regs_in t seen =
  let out = ref [] in
  Net.iter_nodes t (fun v _ -> if seen.(v) && Net.is_reg t v then out := v :: !out);
  List.rev !out

let size seen =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen

(* ---- stamped walks ---- *)

(* Every walk of one walker shares a single visited array, told apart
   by a per-walk stamp, so a walk costs what its cone costs rather
   than a fresh [num_vars] array.  The depth-first search keeps its
   pending vertices on an explicit stack. *)
type walker = {
  net : Net.t;
  stamp : int array;
  mutable cur : int;
  mutable stack : int array;
}

type cone = { w : walker; id : int; leaves : int list; state : int list }

let walker net =
  let n = Net.num_vars net in
  { net; stamp = Array.make n (-1); cur = -1; stack = Array.make 64 0 }

let walk w ~through_state roots =
  w.cur <- w.cur + 1;
  let id = w.cur in
  let sp = ref 0 in
  let push v =
    if w.stamp.(v) <> id then begin
      w.stamp.(v) <- id;
      if !sp = Array.length w.stack then begin
        let stack = Array.make (2 * !sp) 0 in
        Array.blit w.stack 0 stack 0 !sp;
        w.stack <- stack
      end;
      w.stack.(!sp) <- v;
      incr sp
    end
  in
  (* the combinational cone first, deferring data edges, so that
     [leaves] holds exactly the leaves it reaches without crossing a
     state element *)
  let leaves = ref [] and state = ref [] and data = ref [] in
  let state_elem ~comb v d =
    if comb then leaves := v :: !leaves;
    state := v :: !state;
    if through_state then
      if comb then data := d :: !data else push (Lit.var d)
  in
  let drain ~comb =
    while !sp > 0 do
      decr sp;
      let v = w.stack.(!sp) in
      match Net.node w.net v with
      | Net.Const -> ()
      | Net.Input _ -> if comb then leaves := v :: !leaves
      | Net.And (a, b) ->
        push (Lit.var a);
        push (Lit.var b)
      | Net.Reg r -> state_elem ~comb v r.Net.next
      | Net.Latch l -> state_elem ~comb v l.Net.l_data
    done
  in
  List.iter (fun l -> push (Lit.var l)) roots;
  drain ~comb:true;
  List.iter (fun l -> push (Lit.var l)) !data;
  drain ~comb:false;
  { w; id; leaves = !leaves; state = !state }

let mem c v =
  if c.w.cur <> c.id then invalid_arg "Coi.mem: the walker has walked since";
  c.w.stamp.(v) = c.id

let leaves c = c.leaves
let state_elems c = c.state

(* the bool-array walks: one stamped walk on a walker of their own *)
let marks ~through_state t roots =
  let w = walker t in
  let c = walk w ~through_state roots in
  let seen = Array.make (Net.num_vars t) false in
  for v = 0 to Array.length seen - 1 do
    if w.stamp.(v) = c.id then seen.(v) <- true
  done;
  seen

let of_lits t roots = marks ~through_state:true t roots
let combinational t roots = marks ~through_state:false t roots
