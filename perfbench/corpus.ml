(* The inputs every workload hands the program, made from the seed.

   A problem is .bench text plus the names of the targets in it; the
   program only ever sees the text.  Generated designs are built with
   the workload generators from fixed streams, so every seed gets the
   same designs, rendered in their declaration order: the same
   vertices, SAT variable order, solver work and verdicts.  The seed
   picks the names of gates and targets and, where [shuffle] asks for
   it, the order in which the problems are handed over.  Runs on
   different seeds so do the same work, and a gain measured on one
   seed can be checked on another. *)

module Net = Netlist.Net
module Lit = Netlist.Lit
module Gen = Workload.Gen
module Rng = Workload.Rng

type problem = { label : string; text : string; targets : string list }

let of_net ?prefix ?tag ?rng label net =
  let text, targets = Render.render ?prefix ?tag ?rng net in
  { label; text; targets }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* committed problems, taken as the files are *)
let committed () =
  let dir d =
    if Sys.file_exists d && Sys.is_directory d then
      Sys.readdir d |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".bench")
      |> List.sort compare
      |> List.map (Filename.concat d)
    else []
  in
  List.map
    (fun path ->
      let text = read_file path in
      { label = path; text; targets = (Explicit.parse text).Explicit.outputs })
    (dir "examples" @ dir "test/repros")

(* ----- tables: the paper's Tables 1 and 2 ----- *)

type design = { name : string; gp : bool; problem : problem }

(* The designs are fixed and kept in the paper's order; the seed only
   names their gates and targets.  Table 2 designs are rendered after
   latchification, so the program parses the two-phase latch netlist
   and runs the phase front end itself. *)
let tables ~seed =
  let tag = Printf.sprintf "s%d_" seed in
  List.map
    (fun p ->
      let name = p.Workload.Iscas.name in
      { name; gp = false; problem = of_net ~tag name (Workload.Iscas.build p) })
    Workload.Iscas.profiles
  @ List.map
      (fun p ->
        let name = p.Workload.Recipe.name in
        { name; gp = true; problem = of_net ~tag name (Workload.Gp.build p) })
      Workload.Gp.profiles

(* ----- ladder: one family per rung of the strategy ladder ----- *)

let target net name l = Net.add_target net name l

(* Each family builds one design with every vertex name prefixed by
   [p], so no two designs of a corpus share a cone. *)
let families : (string * (Rng.t -> string -> Net.t -> unit)) list =
  [
    (* probe: a free-running counter saturates within the probe depth *)
    ( "shallow-counter",
      fun rng p net ->
        let bits = 2 + Rng.int rng 2 in
        let c = Gen.counter net ~name:(p ^ "c") ~bits ~enable:Lit.true_ in
        target net "full" c.Gen.out );
    (* structural bound: hit at 2^bits - 1, past the probe, inside the
       bound (a gated counter may also idle) *)
    ( "deep-counter",
      fun rng p net ->
        let en = Net.add_input net (p ^ "en") in
        let bits = 4 + Rng.int rng 2 in
        let c = Gen.counter net ~name:(p ^ "c") ~bits ~enable:en in
        target net "full" c.Gen.out );
    (* structural proof: two pipeline lanes fed a and ~a never agree *)
    ( "dual-pipeline",
      fun rng p net ->
        let a = Net.add_input net (p ^ "a") in
        let stages = 8 + Rng.int rng 8 in
        let p1 = Gen.pipeline net ~name:(p ^ "l") ~stages ~data:a in
        let p2 = Gen.pipeline net ~name:(p ^ "r") ~stages ~data:(Lit.neg a) in
        target net "agree" (Net.add_and net p1.Gen.out p2.Gen.out) );
    (* ring: the token reaches the last stage; two tokens never meet *)
    ( "ring",
      fun rng p net ->
        let length = 4 + Rng.int rng 2 in
        let r = Gen.ring net ~name:(p ^ "r") ~length in
        target net "at_last" r.Gen.out;
        match r.Gen.regs with
        | a :: b :: _ -> target net "two_hot" (Net.add_and net a b)
        | _ -> assert false );
    (* queue: a pushed bit reaches the head *)
    ( "queue",
      fun rng p net ->
        let push = Net.add_input net (p ^ "push") in
        let d = Net.add_input net (p ^ "d") in
        let depth = 3 + Rng.int rng 3 in
        let q = Gen.queue net ~name:(p ^ "q") ~depth ~width:1 ~push ~data:[ d ] in
        target net "head" q.Gen.out );
    (* COM: a counter behind a guard only SAT sweeping sees is false *)
    ( "com-guarded",
      fun rng p net ->
        let ins = List.init 4 (fun i -> Net.add_input net (Printf.sprintf "%si%d" p i)) in
        let guard = Gen.com_guard net rng ~inputs:ins in
        let c = Gen.counter net ~name:(p ^ "c") ~bits:(6 + Rng.int rng 3) ~enable:guard in
        target net "ghost" c.Gen.out );
    (* COM,RET,COM: a counter behind a guard only retiming normalizes *)
    ( "ret-guarded",
      fun rng p net ->
        let x = Net.add_input net (p ^ "x") in
        let y = Net.add_input net (p ^ "y") in
        let guard = Gen.ret_guard net ~name:(p ^ "g") ~x ~y in
        let c = Gen.counter net ~name:(p ^ "c") ~bits:(6 + Rng.int rng 3) ~enable:guard in
        target net "ghost" c.Gen.out );
    (* enlargement: a start-up flag that is 1 only at time 0, conjoined
       with a counter that is 0 at time 0 — no state has a predecessor
       hitting the target, so the enlarged target is empty *)
    ( "startup-flag",
      fun rng p net ->
        let en = Net.add_input net (p ^ "en") in
        let c = Gen.counter net ~name:(p ^ "c") ~bits:(7 + Rng.int rng 3) ~enable:en in
        let flag = Net.add_reg net ~init:Net.Init1 (p ^ "boot") in
        Net.set_next net flag Lit.false_;
        target net "late_boot" (Net.add_and net flag (Net.add_or_list net c.Gen.regs)) );
    (* recurrence: a Johnson counter's states all lie on cycles of at
       most 2 * bits, so its recurrence diameter is small while the
       structural bound is 2^bits; "101" never appears in it *)
    ( "johnson",
      fun rng p net ->
        let bits = 7 + Rng.int rng 3 in
        let regs = List.init bits (fun i -> Net.add_reg net (Printf.sprintf "%sj%d" p i)) in
        let arr = Array.of_list regs in
        Array.iteri
          (fun i r ->
            Net.set_next net r (if i = 0 then Lit.neg arr.(bits - 1) else arr.(i - 1)))
          arr;
        target net "pattern" (Net.add_and_list net [ arr.(0); Lit.neg arr.(1); arr.(2) ]) );
    (* latch design: two latch pipelines fed a and ~a never agree; the
       proof goes through phase abstraction *)
    ( "latch-pipeline",
      fun rng p base ->
        let a = Net.add_input base (p ^ "a") in
        let stages = 2 + Rng.int rng 3 in
        let l = Gen.pipeline base ~name:(p ^ "l") ~stages ~data:a in
        let r = Gen.pipeline base ~name:(p ^ "r") ~stages ~data:(Lit.neg a) in
        target base "agree" (Net.add_and base l.Gen.out r.Gen.out) );
  ]

(* n + 1 pigeons placed in n holes with no two sharing one: never
   true, and hard for resolution *)
let fits rng p net =
  let holes = 10 + Rng.int rng 2 in
  let x =
    Array.init (holes + 1) (fun i ->
        Array.init holes (fun j -> Net.add_input net (Printf.sprintf "%sp%d_%d" p i j)))
  in
  let placed = Array.to_list (Array.map (fun row -> Net.add_or_list net (Array.to_list row)) x) in
  let clash =
    List.concat_map
      (fun j ->
        List.concat_map
          (fun i -> List.init (holes - i) (fun d -> Net.add_and net x.(i).(j) x.(i + d + 1).(j)))
          (List.init holes Fun.id))
      (List.init holes Fun.id)
  in
  Net.add_and net (Net.add_and_list net placed) (Lit.neg (Net.add_or_list net clash))

(* Every rung stands down on this target within the conflict
   allowance, at about a second, so a corpus has at most one.  Serve
   requests carry no allowance, so its corpus leaves it out. *)
let pigeonhole = ("pigeonhole", fun rng p net -> target net "fits" (fits rng p net))

(* instance [i] of a family draws its sizes from a fixed stream *)
let build_family (fam, build) i =
  let p = Printf.sprintf "%s%d_" (String.sub fam 0 2) i in
  let net = Net.create () in
  build (Rng.create (i + 1)) p net;
  let net = if fam = "latch-pipeline" then Workload.Gp.latchify net else net in
  (Printf.sprintf "%s#%d" fam i, net)

(* the fuzz campaign whose first cases every corpus takes *)
let campaign_seed = 1

(* [copies] instances of every family, one {!pigeonhole} when
   [stand_down], plus the first [fuzz] campaign cases, named (and with
   [shuffle], ordered) from [seed]. *)
let generated ~seed ~shuffle ~copies ~stand_down ~fuzz =
  let rng = Rng.create seed in
  let fams =
    List.concat_map
      (fun i -> List.map (fun f -> build_family f i) families)
      (List.init copies Fun.id)
    @ if stand_down then [ build_family pigeonhole 0 ] else []
  in
  let cases =
    List.map
      (fun (c : Workload.Fuzz.case) ->
        (* campaign cases share input names: prefix them apart *)
        ( "fuzz-" ^ c.Workload.Fuzz.label,
          Printf.sprintf "f%d_" c.Workload.Fuzz.index,
          c.Workload.Fuzz.net ))
      (Workload.Fuzz.generate ~seed:campaign_seed ~count:fuzz)
  in
  let problems =
    Array.of_list
      (List.map
         (fun (label, prefix, net) ->
           of_net ~prefix ~tag:(Printf.sprintf "s%d_" (Rng.int rng 1000)) label net)
         (List.map (fun (l, n) -> (l, "", n)) fams @ cases))
  in
  if shuffle then Render.shuffle rng problems;
  Array.to_list problems
