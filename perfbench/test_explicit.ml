(* The explicit-state check against designs whose answers are known in
   closed form. *)

let failures = ref 0

let expect name got want =
  if got <> want then begin
    incr failures;
    Printf.printf "FAIL %s: got %s, want %s\n" name got want
  end

let opt = function Some n -> string_of_int n | None -> "never"

let truth text target =
  match Explicit.explore (Explicit.parse text) target with
  | Some t -> t
  | None -> failwith ("not explored: " ^ target)

(* n-bit counter from 0: all ones first at 2^n - 1 *)
let counter n =
  let b = Buffer.create 256 in
  Buffer.add_string b "OUTPUT(full)\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "b%d = DFF(n%d, 0)\n" i i;
    if i = 0 then Buffer.add_string b "n0 = NOT(b0)\nc0 = BUFF(b0)\n"
    else begin
      Printf.bprintf b "n%d = XOR(b%d, c%d)\n" i i (i - 1);
      Printf.bprintf b "c%d = AND(b%d, c%d)\n" i i (i - 1)
    end
  done;
  Printf.bprintf b "full = AND(%s)\n"
    (String.concat ", " (List.init n (Printf.sprintf "b%d")));
  Buffer.contents b

(* one-hot ring of length l: the token reaches the last stage at l - 1 *)
let ring l =
  let b = Buffer.create 256 in
  Buffer.add_string b "OUTPUT(last)\nOUTPUT(two)\n";
  for i = 0 to l - 1 do
    Printf.bprintf b "r%d = DFF(r%d, %d)\n" i ((i + l - 1) mod l) (if i = 0 then 1 else 0)
  done;
  Printf.bprintf b "last = BUFF(r%d)\ntwo = AND(r0, r1)\n" (l - 1);
  Buffer.contents b

(* s-stage pipeline behind a free input: the input reaches the end at s *)
let pipeline s =
  let b = Buffer.create 256 in
  Buffer.add_string b "INPUT(a)\nOUTPUT(out)\n";
  for i = 0 to s - 1 do
    Printf.bprintf b "p%d = DFF(%s, 0)\n" i (if i = 0 then "a" else Printf.sprintf "p%d" (i - 1))
  done;
  Printf.bprintf b "out = BUFF(p%d)\n" (s - 1);
  Buffer.contents b

let () =
  for n = 1 to 6 do
    let t = truth (counter n) "full" in
    let name = Printf.sprintf "counter%d" n in
    expect (name ^ " first hit") (opt t.Explicit.earliest_hit) (opt (Some ((1 lsl n) - 1)));
    expect (name ^ " diameter") (string_of_int t.Explicit.diameter) (string_of_int (1 lsl n));
    expect (name ^ " reachable") (string_of_int t.Explicit.reachable) (string_of_int (1 lsl n));
    expect (name ^ " hit_at")
      (string_of_bool
         (Explicit.hit_at (Explicit.parse (counter n)) "full" ~time:((1 lsl n) - 1) = Some true))
      "true"
  done;
  for l = 2 to 8 do
    let name = Printf.sprintf "ring%d" l in
    let t = truth (ring l) "last" in
    expect (name ^ " first hit") (opt t.Explicit.earliest_hit) (opt (Some (l - 1)));
    expect (name ^ " diameter") (string_of_int t.Explicit.diameter) (string_of_int l);
    let two = truth (ring l) "two" in
    expect (name ^ " two-hot") (opt two.Explicit.earliest_hit) "never"
  done;
  for s = 1 to 8 do
    let name = Printf.sprintf "pipeline%d" s in
    let c = Explicit.parse (pipeline s) in
    let t = truth (pipeline s) "out" in
    expect (name ^ " first hit") (opt t.Explicit.earliest_hit) (opt (Some s));
    expect (name ^ " diameter") (string_of_int t.Explicit.diameter) (string_of_int (s + 1));
    expect (name ^ " no hit before s")
      (string_of_bool (Explicit.hit_at c "out" ~time:(s - 1) = Some false)) "true";
    (* a 1 on the input at time 0 replays to a hit at time s *)
    expect (name ^ " replay")
      (string_of_bool (Explicit.replay c "out" ~depth:s ~inputs:[ ("a", 0, true) ] ~init_x:[]))
      "true";
    expect (name ^ " replay of a miss")
      (string_of_bool (Explicit.replay c "out" ~depth:s ~inputs:[ ("a", 1, true) ] ~init_x:[]))
      "false"
  done;
  if !failures > 0 then exit 1 else print_endline "explicit: all closed-form checks pass"
