(* Netlist -> .bench text, the form every workload hands the program.

   Inputs and state elements keep their names (they are part of a
   cone's identity); AND gates, inverters and targets are named from
   [tag], so two renderings of one design with different tags are
   "renamed" netlists of the same cones.  With [rng], definition lines
   are shuffled, which makes the parser build the vertices in another
   order: a "rebuilt" netlist of the same cones.  [prefix] renames the
   declared inputs and state elements too, which makes a new cone. *)

module Net = Netlist.Net
module Lit = Netlist.Lit

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Workload.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let render ?(prefix = "") ?(tag = "") ?rng net =
  let n = Net.num_vars net in
  let used = Hashtbl.create (2 * n) in
  let claim base =
    let rec go k =
      let cand = if k = 0 then base else Printf.sprintf "%s_u%d" base k in
      if Hashtbl.mem used cand then go (k + 1)
      else begin
        Hashtbl.add used cand ();
        cand
      end
    in
    go 0
  in
  let name = Array.make n "" in
  let defs = ref [] and inputs = ref [] in
  let def fmt = Printf.ksprintf (fun s -> defs := s :: !defs) fmt in
  (* declared names first, so they keep their spelling *)
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.Input s -> name.(v) <- claim (prefix ^ s)
      | Net.Reg r -> name.(v) <- claim (prefix ^ r.Net.r_name)
      | Net.Latch l -> name.(v) <- claim (prefix ^ l.Net.l_name)
      | Net.Const | Net.And _ -> ());
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.Const -> name.(v) <- claim ("_c" ^ tag)
      | Net.And _ -> name.(v) <- claim (Printf.sprintf "_g%s%d" tag v)
      | Net.Input _ | Net.Reg _ | Net.Latch _ -> ());
  let inverted = Hashtbl.create 64 in
  let lit l =
    let v = Lit.var l in
    if not (Lit.is_neg l) then name.(v)
    else
      match Hashtbl.find_opt inverted v with
      | Some s -> s
      | None ->
        let s = claim (Printf.sprintf "_n%s%d" tag v) in
        Hashtbl.add inverted v s;
        def "%s = NOT(%s)" s name.(v);
        s
  in
  let init = function Net.Init0 -> "0" | Net.Init1 -> "1" | Net.Init_x -> "X" in
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.Const -> def "%s = CONST0()" name.(v)
      | Net.Input _ -> inputs := Printf.sprintf "INPUT(%s)" name.(v) :: !inputs
      | Net.And (a, b) -> def "%s = AND(%s, %s)" name.(v) (lit a) (lit b)
      | Net.Reg r -> def "%s = DFF(%s, %s)" name.(v) (lit r.Net.next) (init r.Net.r_init)
      | Net.Latch l ->
        def "%s = LATCH(%s, %d)" name.(v) (lit l.Net.l_data) l.Net.l_phase);
  let outputs =
    List.map
      (fun (t, l) ->
        let s = claim (Printf.sprintf "%s%s" tag t) in
        def "%s = BUFF(%s)" s (lit l);
        (s, Printf.sprintf "OUTPUT(%s)" s))
      (Net.targets net)
  in
  let lines = Array.of_list (List.rev_append !inputs (List.rev !defs)) in
  Option.iter (fun rng -> shuffle rng lines) rng;
  let buf = Buffer.create 4096 in
  List.iter (fun (_, o) -> Buffer.add_string buf (o ^ "\n")) outputs;
  Array.iter (fun l -> Buffer.add_string buf (l ^ "\n")) lines;
  (Buffer.contents buf, List.map fst outputs)
