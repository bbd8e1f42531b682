module Net = Netlist.Net
module Lit = Netlist.Lit

let fail = Parse_error.fail

(* The reader makes one pass over the text by index.  Signal names are
   interned to dense ids, keyed by their position in the text, so a
   name is copied out of the text only where the netlist or an error
   message needs it as a string.  The scanner's helpers are closed
   functions rather than local closures: they run per character and
   per token and must not allocate. *)

(* ---- growable arrays ---- *)

type 'a vec = { mutable items : 'a array; mutable len : int }

let vec () = { items = [||]; len = 0 }

(* room for one more item, [x] filling the new space *)
let reserve v x =
  if v.len = Array.length v.items then begin
    let items = Array.make (max 64 (2 * v.len)) x in
    Array.blit v.items 0 items 0 v.len;
    v.items <- items
  end

(* monomorphic, so that an int store compiles to a plain move *)
let push (v : int vec) x =
  reserve v x;
  v.items.(v.len) <- x;
  v.len <- v.len + 1

(* ---- scanning ---- *)

(* [String.trim]'s whitespace *)
let is_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

(* the first non-space index in [a, b), or [b] *)
let rec skip_fwd s a b =
  if a < b && is_space s.[a] then skip_fwd s (a + 1) b else a

(* one past the last non-space index in [a, b), or [a] *)
let rec skip_back s a b =
  if b > a && is_space s.[b - 1] then skip_back s a (b - 1) else b

(* the first index of [c] in [a, b), or -1 *)
let rec find s c a b =
  if a >= b then -1 else if s.[a] = c then a else find s c (a + 1) b

(* the last index of [c] in [a, b), or -1 *)
let rec rfind s c a b =
  if b <= a then -1 else if s.[b - 1] = c then b - 1 else rfind s c a (b - 1)

let rec upper_from s a word i =
  i = String.length word
  || (Char.uppercase_ascii s.[a + i] = word.[i] && upper_from s a word (i + 1))

(* [s.[a..b)] upper-cased equals [word] *)
let is_word s a b word = b - a = String.length word && upper_from s a word 0

type gate =
  | Input
  | Dff
  | Latch
  | Const0
  | Const1
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Not
  | Buff of string  (** spelled BUFF or BUF *)
  | Mux
  | Unknown of string  (** upper-cased, for the error *)

let gate_of s a b =
  if is_word s a b "AND" then And
  else if is_word s a b "NAND" then Nand
  else if is_word s a b "OR" then Or
  else if is_word s a b "NOR" then Nor
  else if is_word s a b "XOR" then Xor
  else if is_word s a b "XNOR" then Xnor
  else if is_word s a b "NOT" then Not
  else if is_word s a b "BUFF" then Buff "BUFF"
  else if is_word s a b "BUF" then Buff "BUF"
  else if is_word s a b "DFF" then Dff
  else if is_word s a b "LATCH" then Latch
  else if is_word s a b "MUX" then Mux
  else if is_word s a b "CONST0" then Const0
  else if is_word s a b "CONST1" then Const1
  else Unknown (String.uppercase_ascii (String.sub s a (b - a)))

let gate_name = function
  | Input -> "INPUT"
  | Dff -> "DFF"
  | Latch -> "LATCH"
  | Const0 -> "CONST0"
  | Const1 -> "CONST1"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Not -> "NOT"
  | Mux -> "MUX"
  | Buff g | Unknown g -> g

(* Name ids by open addressing; id [i] is the text range
   [at.(i), at.(i) + len.(i)). *)
type names = {
  text : string;
  at : int vec;
  len : int vec;
  hash : int vec;
  mutable slots : int array;  (** hash slot -> id, or -1; at most half full *)
}

let hash_range s a b =
  let h = ref 0 in
  for i = a to b - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  let h = !h * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land max_int

(* [s.[a..a+i)] equals [s.[b..b+i)] *)
let rec same_from s a b i =
  i = 0 || (s.[a + i - 1] = s.[b + i - 1] && same_from s a b (i - 1))

(* the slot holding [text.[a..b)] hashed to [h], or the empty slot
   where it belongs *)
let rec probe names a b h i =
  let id = names.slots.(i) in
  if
    id < 0
    || names.hash.items.(id) = h
       && names.len.items.(id) = b - a
       && same_from names.text names.at.items.(id) a (b - a)
  then i
  else probe names a b h ((i + 1) land (Array.length names.slots - 1))

let rehash names =
  let slots = Array.make (2 * Array.length names.slots) (-1) in
  let mask = Array.length slots - 1 in
  let rec free i = if slots.(i) < 0 then i else free ((i + 1) land mask) in
  for id = 0 to names.at.len - 1 do
    slots.(free (names.hash.items.(id) land mask)) <- id
  done;
  names.slots <- slots

let intern names a b =
  let h = hash_range names.text a b in
  let i = probe names a b h (h land (Array.length names.slots - 1)) in
  let id = names.slots.(i) in
  if id >= 0 then id
  else begin
    let id = names.at.len in
    push names.at a;
    push names.len (b - a);
    push names.hash h;
    names.slots.(i) <- id;
    if 2 * names.at.len > Array.length names.slots then rehash names;
    id
  end

let name_of names id =
  String.sub names.text names.at.items.(id) names.len.items.(id)

(* The scanned file.  Definition [d] (in declaration order) defines
   name [def_id.(d)] on line [def_line.(d)]; its operands are the name
   ids [args.(def_off.(d)) .. args.(def_off.(d) + def_len.(d) - 1)].
   [def_of.(id)] is the definition of name [id], or -1. *)
type scan = {
  names : names;
  def_id : int vec;
  def_line : int vec;
  def_gate : gate vec;
  def_off : int vec;
  def_len : int vec;
  args : int vec;
  def_of : int vec;
  mutable outputs : (int * int) list;  (** (id, line), in reverse file order *)
  mutable max_phase : int;
}

let scan text =
  let names =
    { text; at = vec (); len = vec (); hash = vec (); slots = Array.make 256 (-1) }
  in
  let sc =
    {
      names;
      def_id = vec ();
      def_line = vec ();
      def_gate = vec ();
      def_off = vec ();
      def_len = vec ();
      args = vec ();
      def_of = vec ();
      outputs = [];
      max_phase = 0;
    }
  in
  (* the id of [text.[a..b)] trimmed *)
  let name a b =
    let a = skip_fwd text a b in
    let id = intern names a (skip_back text a b) in
    if id = sc.def_of.len then push sc.def_of (-1);
    id
  in
  let add_def ~line id gate off =
    if sc.def_of.items.(id) >= 0 then
      fail ~line "duplicate definition of %s" (name_of names id);
    sc.def_of.items.(id) <- sc.def_id.len;
    push sc.def_id id;
    push sc.def_line line;
    reserve sc.def_gate gate;
    sc.def_gate.items.(sc.def_gate.len) <- gate;
    sc.def_gate.len <- sc.def_gate.len + 1;
    push sc.def_off off;
    push sc.def_len (sc.args.len - off)
  in
  (* a declaration "KEYWORD(name)" whose "(" ends at [a + k]; the name
     runs to the character before the line's end *)
  let declared ~line a b k =
    if b - a = k then fail ~line "malformed declaration: %s" (String.sub text a k);
    name (a + k) (b - 1)
  in
  (* the comma-separated operands in [a, r), empty ones dropped *)
  let rec operands a r =
    let c = find text ',' a r in
    let e = if c < 0 then r else c in
    if skip_fwd text a e < e then push sc.args (name a e);
    if c >= 0 then operands (c + 1) r
  in
  (* "NAME = GATE(a, b, c)" on [a, b), trimmed *)
  let assignment ~line a b =
    let eq = find text '=' a b in
    if eq < 0 then fail ~line "expected '=' in: %s" (String.sub text a (b - a));
    let id = name a eq in
    let ra = skip_fwd text (eq + 1) b in
    let l = find text '(' ra b and r = rfind text ')' ra b in
    if l < 0 || r <= l then
      fail ~line "malformed right-hand side: %s" (String.sub text ra (b - ra));
    let gate =
      let ga = skip_fwd text ra l in
      gate_of text ga (skip_back text ga l)
    in
    let off = sc.args.len in
    operands (l + 1) r;
    if gate = Latch then begin
      if sc.args.len - off <> 2 then fail ~line "LATCH takes (data, phase)";
      let p = name_of names sc.args.items.(off + 1) in
      match int_of_string_opt p with
      | Some ph -> sc.max_phase <- max sc.max_phase ph
      | None -> fail ~line "bad LATCH phase %s" p
    end;
    add_def ~line id gate off
  in
  let n = String.length text in
  let rec lines line pos =
    if pos <= n then begin
      let eol = find text '\n' pos n in
      let eol = if eol < 0 then n else eol in
      let stop = find text '#' pos eol in
      let a = skip_fwd text pos (if stop < 0 then eol else stop) in
      let b = skip_back text a (if stop < 0 then eol else stop) in
      if a < b then
        if b - a >= 6 && is_word text a (a + 6) "INPUT(" then
          add_def ~line (declared ~line a b 6) Input sc.args.len
        else if b - a >= 7 && is_word text a (a + 7) "OUTPUT(" then
          sc.outputs <- (declared ~line a b 7, line) :: sc.outputs
        else assignment ~line a b;
      lines (line + 1) (eol + 1)
    end
  in
  lines 1 0;
  sc

(* ---- building ---- *)

let unbuilt = '\000'
let on_stack = '\001'
let built = '\002'

(* Vertices are created in a fixed order: state elements first (so
   forward references resolve), then every definition in declaration
   order pulling its fanin depth-first and left to right.  The state
   elements' data edges (last declared first) and the outputs then
   only connect built literals; their order decides which undefined
   operand is reported.  The depth-first walk keeps its frames on an
   explicit stack, so deep netlists do not grow the call stack. *)
let build sc =
  let net = Net.create ~phases:(sc.max_phase + 1) () in
  let nids = sc.def_of.len in
  let lit = Array.make nids Lit.false_ in
  let mark = Bytes.make nids unbuilt in
  let key = name_of sc.names in
  let set id l =
    lit.(id) <- l;
    Bytes.set mark id built
  in
  let arg d i = sc.args.items.(sc.def_off.items.(d) + i) in
  let state = vec () in
  (* frames of the depth-first walk: a definition and the number of
     its operands already resolved *)
  let frames = vec () and next = vec () in
  let init_of ~line id =
    match key id with
    | "0" -> Net.Init0
    | "1" -> Net.Init1
    | "X" | "x" -> Net.Init_x
    | s -> fail ~line "bad initial value %s" s
  in
  (* [line] is the position of the reference being resolved, so
     "undefined signal" blames the use site, while gate errors blame
     the signal's own definition line *)
  let enter ~line id =
    if Bytes.get mark id = on_stack then
      fail ~line "combinational cycle through %s" (key id);
    let d = sc.def_of.items.(id) in
    if d < 0 then fail ~line "undefined signal %s" (key id);
    let line = sc.def_line.items.(d) in
    match sc.def_gate.items.(d) with
    | Input -> set id (Net.add_input net (key id))
    | Dff ->
      let init =
        match sc.def_len.items.(d) with
        | 0 -> fail ~line "unknown gate type DFF"
        | 1 -> Net.Init0
        | 2 -> init_of ~line (arg d 1)
        | _ -> fail ~line "DFF takes (data[, init])"
      in
      set id (Net.add_reg net ~init (key id));
      push state d
    | Latch ->
      (* the scan checked that the phase is a number; a negative one
         is refused here, so that any error the scan finds first is
         still the one reported *)
      let p = key (arg d 1) in
      let phase = int_of_string p in
      if phase < 0 then fail ~line "bad LATCH phase %s" p;
      set id (Net.add_latch net ~phase (key id));
      push state d
    | Const0 -> set id Lit.false_
    | Const1 -> set id Lit.true_
    | Unknown g -> fail ~line "unknown gate type %s" g
    | And | Nand | Or | Nor | Xor | Xnor | Not | Buff _ | Mux ->
      Bytes.set mark id on_stack;
      push frames d;
      push next 0
  in
  let combine d =
    let gate = sc.def_gate.items.(d) in
    let ops = List.init sc.def_len.items.(d) (fun i -> lit.(arg d i)) in
    match (gate, ops) with
    | And, _ -> Net.add_and_list net ops
    | Nand, _ -> Lit.neg (Net.add_and_list net ops)
    | Or, _ -> Net.add_or_list net ops
    | Nor, _ -> Lit.neg (Net.add_or_list net ops)
    | Xor, a :: rest -> List.fold_left (Net.add_xor net) a rest
    | Xnor, [ a; b ] -> Lit.neg (Net.add_xor net a b)
    | Not, [ a ] -> Lit.neg a
    | Buff _, [ a ] -> a
    | Mux, [ s; a; b ] -> Net.add_mux net ~sel:s ~t1:a ~t0:b
    | (Xor | Xnor | Not | Buff _ | Mux), _ ->
      fail ~line:sc.def_line.items.(d) "bad arity for %s at %s" (gate_name gate)
        (key sc.def_id.items.(d))
    | (Input | Dff | Latch | Const0 | Const1 | Unknown _), _ -> assert false
  in
  let resolve ~line id =
    if Bytes.get mark id <> built then begin
      enter ~line id;
      while frames.len > 0 do
        let top = frames.len - 1 in
        let d = frames.items.(top) and i = next.items.(top) in
        if i < sc.def_len.items.(d) then begin
          next.items.(top) <- i + 1;
          let a = arg d i in
          if Bytes.get mark a <> built then
            enter ~line:sc.def_line.items.(d) a
        end
        else begin
          frames.len <- top;
          next.len <- top;
          set sc.def_id.items.(d) (combine d)
        end
      done
    end;
    lit.(id)
  in
  let each_def f =
    for d = 0 to sc.def_id.len - 1 do
      f d sc.def_id.items.(d) sc.def_line.items.(d)
    done
  in
  each_def (fun d id line ->
      match sc.def_gate.items.(d) with
      | Dff | Latch -> ignore (resolve ~line id)
      | Input | Const0 | Const1 | And | Nand | Or | Nor | Xor | Xnor | Not
      | Buff _ | Mux | Unknown _ ->
        ());
  each_def (fun _ id line -> ignore (resolve ~line id));
  for k = state.len - 1 downto 0 do
    let d = state.items.(k) in
    let r = lit.(sc.def_id.items.(d)) in
    let data = resolve ~line:sc.def_line.items.(d) (arg d 0) in
    if sc.def_gate.items.(d) = Dff then Net.set_next net r data
    else Net.set_latch_data net r data
  done;
  List.iter
    (fun (id, line) ->
      let l = resolve ~line id in
      let name = key id in
      Net.add_output net name l;
      Net.add_target net name l)
    (List.rev sc.outputs);
  net

let parse text =
  Obs.span "textio.parse"
    ~result:(fun net ->
      [
        ("bytes", Obs.Trace.Int (String.length text));
        ("vars", Obs.Trace.Int (Net.num_vars net));
      ])
    (fun () -> build (scan text))

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse text

let to_string net =
  let buf = Buffer.create 4096 in
  let name_of = Array.make (Net.num_vars net) "" in
  (* Written text must always re-parse: every printed definition needs
     a unique name.  Names the writer itself synthesizes ("const0",
     "const1", gate/inverter/alias names) are part of the same
     namespace as declared input/register/latch names, so everything
     goes through one claim table; a collision — duplicate declared
     names, or an input literally called "n5" or "not_x" — gets a
     deterministic "_u<k>" suffix.  Synthesized gate names are claimed
     after all declared names so that a design that doesn't collide
     keeps exactly its declared spelling. *)
  let used = Hashtbl.create 64 in
  Hashtbl.replace used "const0" ();
  Hashtbl.replace used "const1" ();
  let claim base =
    let base = if base = "" then "sig" else base in
    if not (Hashtbl.mem used base) then begin
      Hashtbl.replace used base ();
      base
    end
    else begin
      let rec go k =
        let cand = Printf.sprintf "%s_u%d" base k in
        if Hashtbl.mem used cand then go (k + 1) else cand
      in
      let fresh = go 1 in
      Hashtbl.replace used fresh ();
      fresh
    end
  in
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.Const -> name_of.(v) <- "const"
      | Net.Input s -> name_of.(v) <- claim s
      | Net.And _ -> ()
      | Net.Reg r -> name_of.(v) <- claim r.Net.r_name
      | Net.Latch l -> name_of.(v) <- claim l.Net.l_name);
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.And _ -> name_of.(v) <- claim (Printf.sprintf "n%d" v)
      | _ -> ());
  let const_used = ref false in
  let not_emitted = Hashtbl.create 64 in
  let not_order = ref [] in
  (* name of a literal, emitting a NOT line (once) for negations *)
  let operand l =
    let v = Lit.var l in
    if v = 0 then begin
      const_used := true;
      if Lit.is_neg l then "const1" else "const0"
    end
    else if Lit.is_neg l then begin
      match Hashtbl.find_opt not_emitted v with
      | Some n -> n
      | None ->
        let n = claim ("not_" ^ name_of.(v)) in
        Hashtbl.add not_emitted v n;
        not_order := v :: !not_order;
        n
    end
    else name_of.(v)
  in
  let body = Buffer.create 4096 in
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.Const -> ()
      | Net.Input _ ->
        Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" name_of.(v))
      | Net.And (a, b) ->
        Buffer.add_string body
          (Printf.sprintf "%s = AND(%s, %s)\n" name_of.(v) (operand a)
             (operand b))
      | Net.Reg r ->
        let init =
          match r.Net.r_init with
          | Net.Init0 -> "0"
          | Net.Init1 -> "1"
          | Net.Init_x -> "X"
        in
        Buffer.add_string body
          (Printf.sprintf "%s = DFF(%s, %s)\n" name_of.(v) (operand r.Net.next)
             init)
      | Net.Latch l ->
        Buffer.add_string body
          (Printf.sprintf "%s = LATCH(%s, %d)\n" name_of.(v)
             (operand l.Net.l_data) l.Net.l_phase));
  List.iter
    (fun (name, l) ->
      let op = operand l in
      if op = name then
        (* the signal itself carries the output name: a bare reference *)
        Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" name)
      else begin
        (* the alias line defines [name], so it too must be unique *)
        let name = claim name in
        Buffer.add_string body (Printf.sprintf "%s = BUFF(%s)\n" name op);
        Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" name)
      end)
    (Net.outputs net);
  if !const_used then begin
    Buffer.add_string buf "const0 = CONST0()\n";
    Buffer.add_string buf "const1 = CONST1()\n"
  end;
  Buffer.add_buffer buf body;
  (* Inverter aliases go after the body so a re-parse creates gates in
     body (vertex-id) order: resolving a NOT whose operand is already
     built allocates nothing, whereas a leading NOT block would drag
     whole cones in first-use order and renumber them — write→parse→
     write must reach a fixpoint after one iteration.  (DFF/LATCH data
     references never recurse at all: the parser defers data cones.) *)
  List.iter
    (fun v ->
      let n = Hashtbl.find not_emitted v in
      Buffer.add_string buf (Printf.sprintf "%s = NOT(%s)\n" n name_of.(v)))
    (List.rev !not_order);
  Buffer.contents buf

let write_file path net =
  let oc = open_out path in
  output_string oc (to_string net);
  close_out oc
