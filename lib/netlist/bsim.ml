open Bigarray

(* One unboxed 64-bit word per vertex.  The concrete element kind lets
   ocamlopt inline every access; a polymorphic Bigarray access goes
   through a C call and boxes its result. *)
type words = (int64, int64_elt, c_layout) Array1.t

(* The netlist is compiled once in [create], so it must not change
   afterwards.  Literals are kept raw ([Lit.to_int]): a word lookup is
   a shift and a mask. *)
type state = {
  net : Net.t;
  inputs : int array; (* Net.inputs order: the order of the random draws *)
  regs : int array;
  nexts : int array; (* next-state literal of regs.(i) *)
  latches : int array;
  ands : int array; (* vertex, fanin, fanin triples in vertex order *)
  vals : words;
  held : words; (* state-element values carried to the next step *)
  inw : words; (* this step's input words; latch netlists only *)
  rng : Random.State.t;
  mutable now : int;
}

let words n =
  let w = Array1.create int64 c_layout n in
  Array1.fill w 0L;
  w

let create ~seed net =
  let n = Net.num_vars net in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let held = words n in
  let ands = Array.make (3 * Net.num_ands net) 0 in
  let k = ref 0 in
  Net.iter_nodes net (fun v node ->
      let init_word = function
        | Net.Init0 -> 0L
        | Net.Init1 -> -1L
        | Net.Init_x -> Random.State.int64 rng Int64.max_int
      in
      match node with
      | Net.Reg r -> held.{v} <- init_word r.Net.r_init
      | Net.Latch l -> held.{v} <- init_word l.Net.l_init
      | Net.And (a, b) ->
        ands.(!k) <- v;
        ands.(!k + 1) <- Lit.to_int a;
        ands.(!k + 2) <- Lit.to_int b;
        k := !k + 3
      | Net.Const | Net.Input _ -> ());
  let regs = Array.of_list (Net.regs net) in
  let latches = Array.of_list (Net.latches net) in
  {
    net;
    inputs = Array.of_list (Net.inputs net);
    regs;
    nexts = Array.map (fun r -> Lit.to_int (Net.reg_of net r).Net.next) regs;
    latches;
    ands;
    vals = words n;
    held;
    inw = words (if Array.length latches = 0 then 0 else n);
    rng;
    now = 0;
  }

let net s = s.net
let time s = s.now

(* word of a raw literal: the sign bit, spread over 64 lanes, flips it *)
let[@inline] lit_word (vals : words) l =
  Int64.logxor vals.{l lsr 1} (Int64.of_int (-(l land 1)))

let word s l = lit_word s.vals (Lit.to_int l)

let random_word rng =
  Int64.logxor
    (Random.State.int64 rng Int64.max_int)
    (Int64.shift_left (Random.State.int64 rng Int64.max_int) 1)

(* Without latches the combinational logic is acyclic and an AND only
   reads lower vertices, so one pass in vertex order is the fixpoint. *)
let eval_acyclic s =
  let vals = s.vals and held = s.held and ands = s.ands in
  Array.iter (fun v -> vals.{v} <- random_word s.rng) s.inputs;
  Array.iter (fun r -> vals.{r} <- held.{r}) s.regs;
  for i = 0 to (Array.length ands / 3) - 1 do
    let j = 3 * i in
    vals.{ands.(j)} <-
      Int64.logand (lit_word vals ands.(j + 1)) (lit_word vals ands.(j + 2))
  done

(* Transparent latches may read forward, so relax to a fixpoint. *)
let sweep s phase =
  let vals = s.vals in
  let changed = ref false in
  let set v x =
    if not (Int64.equal vals.{v} x) then begin
      vals.{v} <- x;
      changed := true
    end
  in
  Net.iter_nodes s.net (fun v node ->
      match node with
      | Net.Const -> set v 0L
      | Net.Input _ -> set v s.inw.{v}
      | Net.And (a, b) ->
        set v
          (Int64.logand (lit_word vals (Lit.to_int a))
             (lit_word vals (Lit.to_int b)))
      | Net.Reg _ -> set v s.held.{v}
      | Net.Latch l ->
        if l.Net.l_phase = phase then
          set v (lit_word vals (Lit.to_int l.Net.l_data))
        else set v s.held.{v});
  !changed

let settle s =
  Array.iter (fun v -> s.inw.{v} <- random_word s.rng) s.inputs;
  let phase = s.now mod Net.phases s.net in
  let rec loop budget =
    if sweep s phase then
      if budget = 0 then failwith "Bsim.step_random: latch cycle"
      else loop (budget - 1)
  in
  loop (Net.num_vars s.net + 2)

let step_random s =
  if Array.length s.latches = 0 then eval_acyclic s else settle s;
  let vals = s.vals and held = s.held in
  Array.iteri (fun i r -> held.{r} <- lit_word vals s.nexts.(i)) s.regs;
  Array.iter (fun l -> held.{l} <- vals.{l}) s.latches;
  s.now <- s.now + 1

(* Signature combining: must satisfy sig(~v) = lognot (sig v) so that
   candidate detection can consider complemented merges.  We fold each
   step's word with a self-inverse-under-complement mix: rotating by a
   per-step amount and xoring preserves the complement relation only if
   the number of xored terms per lane is odd-symmetric; instead we keep
   it exact by construction: sig = word_0 rotl 1 xor word_1 rotl 2 ...
   complementing every word complements the xor of an odd count, so we
   use an odd number of steps (enforced by rounding [steps] up). *)
let signatures ~seed ~steps net =
  let steps = if steps mod 2 = 0 then steps + 1 else steps in
  let s = create ~seed net in
  let n = Net.num_vars net in
  let vals = s.vals in
  let sigs = words n in
  for i = 1 to steps do
    step_random s;
    let r = 1 + (i mod 62) in
    for v = 0 to n - 1 do
      let w = vals.{v} in
      let rotated =
        Int64.logor (Int64.shift_left w r) (Int64.shift_right_logical w (64 - r))
      in
      sigs.{v} <- Int64.logxor sigs.{v} rotated
    done
  done;
  Array.init n (fun v -> sigs.{v})

(* Free-state words: every input, register and latch output is a
   fresh random cut point, as in a combinational SAT frame, so an AND
   only reads lower vertices and one pass in vertex order is exact. *)
let free_words ~seed net =
  let rng = Random.State.make [| seed; 0xf4ee |] in
  let vals = words (Net.num_vars net) in
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.Const -> ()
      | Net.Input _ | Net.Reg _ | Net.Latch _ -> vals.{v} <- random_word rng
      | Net.And (a, b) ->
        vals.{v} <-
          Int64.logand (lit_word vals (Lit.to_int a)) (lit_word vals (Lit.to_int b)));
  fun l -> lit_word vals (Lit.to_int l)

let canonical_signature s =
  let c = Int64.lognot s in
  if Int64.unsigned_compare s c <= 0 then (s, false) else (c, true)
