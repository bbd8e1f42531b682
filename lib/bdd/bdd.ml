type t = int

let bfalse = 0
let btrue = 1
let is_false f = f = 0
let is_true f = f = 1
let equal = Int.equal

exception Node_limit of int

type man = {
  mutable vars : int array; (* node -> variable (max_int at terminals) *)
  mutable lows : int array;
  mutable highs : int array;
  mutable count : int;
  max_nodes : int option;
  unique : (int * int * int, int) Hashtbl.t;
  ite_cache : (int * int * int, int) Hashtbl.t;
  not_cache : (int, int) Hashtbl.t;
  mutable quant_cache : (int, int) Hashtbl.t;
  mutable compose_cache : (int, int) Hashtbl.t;
}

let man ?max_nodes () =
  let m =
    {
      vars = Array.make 1024 max_int;
      lows = Array.make 1024 0;
      highs = Array.make 1024 0;
      count = 2;
      max_nodes;
      unique = Hashtbl.create 4096;
      ite_cache = Hashtbl.create 4096;
      not_cache = Hashtbl.create 1024;
      quant_cache = Hashtbl.create 64;
      compose_cache = Hashtbl.create 64;
    }
  in
  (* terminals *)
  m.vars.(0) <- max_int;
  m.vars.(1) <- max_int;
  m

let node_count m = m.count
let var_of m f = m.vars.(f)
let low m f = m.lows.(f)
let high m f = m.highs.(f)

let mk m v lo hi =
  if lo = hi then lo
  else begin
    let key = (v, lo, hi) in
    match Hashtbl.find_opt m.unique key with
    | Some id -> id
    | None ->
      (* [mk] is the single allocation point, so a node allowance is
         enforced here and nowhere else *)
      (match m.max_nodes with
      | Some lim when m.count >= lim -> raise (Node_limit m.count)
      | _ -> ());
      if m.count = Array.length m.vars then begin
        let n = 2 * m.count in
        let grow a d =
          let b = Array.make n d in
          Array.blit a 0 b 0 m.count;
          b
        in
        m.vars <- grow m.vars max_int;
        m.lows <- grow m.lows 0;
        m.highs <- grow m.highs 0
      end;
      let id = m.count in
      m.count <- id + 1;
      m.vars.(id) <- v;
      m.lows.(id) <- lo;
      m.highs.(id) <- hi;
      Hashtbl.add m.unique key id;
      id
  end

let var m v =
  assert (v >= 0 && v < max_int);
  mk m v bfalse btrue

let nvar m v = mk m v btrue bfalse

let rec bnot m f =
  if f = bfalse then btrue
  else if f = btrue then bfalse
  else
    match Hashtbl.find_opt m.not_cache f with
    | Some g -> g
    | None ->
      let g = mk m (var_of m f) (bnot m (low m f)) (bnot m (high m f)) in
      Hashtbl.add m.not_cache f g;
      g

let cofactors m v f =
  if var_of m f = v then (low m f, high m f) else (f, f)

let rec ite m f g h =
  if f = btrue then g
  else if f = bfalse then h
  else if g = h then g
  else if g = btrue && h = bfalse then f
  else if g = bfalse && h = btrue then bnot m f
  else begin
    let key = (f, g, h) in
    match Hashtbl.find_opt m.ite_cache key with
    | Some r -> r
    | None ->
      let v =
        min (var_of m f) (min (var_of m g) (var_of m h))
      in
      let f0, f1 = cofactors m v f in
      let g0, g1 = cofactors m v g in
      let h0, h1 = cofactors m v h in
      let r0 = ite m f0 g0 h0 in
      let r1 = ite m f1 g1 h1 in
      let r = mk m v r0 r1 in
      Hashtbl.add m.ite_cache key r;
      r
  end

let band m f g = ite m f g bfalse
let bor m f g = ite m f btrue g
let bxor m f g = ite m f (bnot m g) g
let biff m f g = ite m f g (bnot m g)
let bor_list m = List.fold_left (bor m) bfalse

module Iset = Set.Make (Int)

let quantify ~univ m vars f =
  let vars = Iset.of_list vars in
  let max_var = match Iset.max_elt_opt vars with Some v -> v | None -> -1 in
  m.quant_cache <- Hashtbl.create 1024;
  let cache = m.quant_cache in
  let rec go f =
    if f < 2 || var_of m f > max_var then f
    else
      match Hashtbl.find_opt cache f with
      | Some r -> r
      | None ->
        let v = var_of m f in
        let r0 = go (low m f) in
        let r1 = go (high m f) in
        let r =
          if Iset.mem v vars then
            if univ then band m r0 r1 else bor m r0 r1
          else mk m v r0 r1
        in
        Hashtbl.add cache f r;
        r
  in
  go f

let exists m vars f = quantify ~univ:false m vars f
let forall m vars f = quantify ~univ:true m vars f

let compose m subst f =
  m.compose_cache <- Hashtbl.create 1024;
  let cache = m.compose_cache in
  let rec go f =
    if f < 2 then f
    else
      match Hashtbl.find_opt cache f with
      | Some r -> r
      | None ->
        let v = var_of m f in
        let r0 = go (low m f) in
        let r1 = go (high m f) in
        let fv = match subst v with Some g -> g | None -> var m v in
        let r = ite m fv r1 r0 in
        Hashtbl.add cache f r;
        r
  in
  go f

let view m f =
  if f = bfalse then `False
  else if f = btrue then `True
  else `Node (var_of m f, low m f, high m f)

let rec eval m env f =
  if f = bfalse then false
  else if f = btrue then true
  else if env (var_of m f) then eval m env (high m f)
  else eval m env (low m f)

let support m f =
  let seen = Hashtbl.create 64 in
  let vars = ref Iset.empty in
  let rec go f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      vars := Iset.add (var_of m f) !vars;
      go (low m f);
      go (high m f)
    end
  in
  go f;
  Iset.elements !vars

let size m f =
  let seen = Hashtbl.create 64 in
  let n = ref 0 in
  let rec go f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      incr n;
      go (low m f);
      go (high m f)
    end
  in
  go f;
  !n

let sat_count m ~nvars f =
  let cache = Hashtbl.create 64 in
  (* counts over the suffix of the order starting at the node's var *)
  let rec go f =
    if f = bfalse then 0.
    else if f = btrue then 1.
    else
      match Hashtbl.find_opt cache f with
      | Some c -> c
      | None ->
        let v = var_of m f in
        let weight g =
          let sub = go g in
          let next = if g < 2 then nvars else var_of m g in
          sub *. (2. ** float_of_int (next - v - 1))
        in
        let c = weight (low m f) +. weight (high m f) in
        Hashtbl.add cache f c;
        c
  in
  if f = bfalse then 0.
  else if f = btrue then 2. ** float_of_int nvars
  else go f *. (2. ** float_of_int (var_of m f))

let any_sat m f =
  if f = bfalse then invalid_arg "Bdd.any_sat: false BDD";
  let rec go acc f =
    if f = btrue then List.rev acc
    else if low m f <> bfalse then go ((var_of m f, false) :: acc) (low m f)
    else go ((var_of m f, true) :: acc) (high m f)
  in
  go [] f
