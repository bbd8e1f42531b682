(* Pluggable solver backends: the SOLVER contract, the three shipped
   implementations (reference CDCL, BDD oracle, external DIMACS
   round-trip), and the selection spec the engine races over.  See
   backend.mli for the contract and the determinism invariant. *)

module Solver = Sat.Solver

type lit = Solver.lit

type result = Sat | Unsat | Unknown of string

let budget_reason = "budget-exhausted"
let node_limit_reason n = Printf.sprintf "bdd-node-limit:%d" n

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let is_node_limit = has_prefix "bdd-node-limit"
let unavailable_prefix = "backend-unavailable"
let unavailable detail = unavailable_prefix ^ ": " ^ detail
let is_unavailable = has_prefix unavailable_prefix

type stats = {
  vars : int;
  clauses : int;
  learnts : int;
  trail : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  reduce_dbs : int;
  simplifies : int;
  subsumed : int;
  strengthened : int;
  eliminated : int;
  probed_units : int;
}

let zero_stats =
  {
    vars = 0;
    clauses = 0;
    learnts = 0;
    trail = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    reduce_dbs = 0;
    simplifies = 0;
    subsumed = 0;
    strengthened = 0;
    eliminated = 0;
    probed_units = 0;
  }

module type SOLVER = sig
  val name : string
  val new_var : unit -> int
  val add_clause : lit list -> unit

  val solve :
    ?assumptions:lit list ->
    ?max_conflicts:int ->
    ?max_propagations:int ->
    ?max_nodes:int ->
    ?should_stop:(unit -> bool) ->
    unit ->
    result

  val value : lit -> bool
  val set_proof : Sat.Proof.t -> unit
  val proof_capable : bool
  val stats : unit -> stats
  val set_simplify_wrapper : ((unit -> unit) -> unit) -> unit
  val interrupt : unit -> unit
end

type solver = (module SOLVER)

(* ----- literal helpers ----- *)

let pos = Solver.pos
let neg_of = Solver.neg_of
let negate = Solver.negate
let var_of = Solver.var_of
let is_pos = Solver.is_pos

(* ----- instance operations ----- *)

let name (module S : SOLVER) = S.name
let new_var (module S : SOLVER) = S.new_var ()
let add_clause (module S : SOLVER) c = S.add_clause c

let solve ?assumptions ?max_conflicts ?max_propagations ?max_nodes ?should_stop
    (module S : SOLVER) =
  S.solve ?assumptions ?max_conflicts ?max_propagations ?max_nodes ?should_stop
    ()

let value (module S : SOLVER) l = S.value l
let set_proof (module S : SOLVER) p = S.set_proof p
let proof_capable (module S : SOLVER) = S.proof_capable
let stats (module S : SOLVER) = S.stats ()
let set_simplify_wrapper (module S : SOLVER) w = S.set_simplify_wrapper w
let interrupt (module S : SOLVER) = S.interrupt ()
let num_conflicts s = (stats s).conflicts
let num_propagations s = (stats s).propagations
let num_vars s = (stats s).vars
let num_clauses s = (stats s).clauses

(* ----- chaos plumbing shared by the non-CDCL backends -----

   The reference backend injects inside Sat.Solver itself; the oracle
   backends corrupt their REPORTED answers here, at the seam, so the
   certification layer is exercised against every backend the same
   way.  Instances are captured at solver creation, exactly like
   Solver.create does. *)

let chaos_report inst ~garbage_model ~scramble_model r =
  match (Sat.Chaos.instance_fault inst, r) with
  | Some Sat.Chaos.Flip_to_unsat, Sat ->
    Sat.Chaos.instance_note inst;
    Unsat
  | Some Sat.Chaos.Flip_to_sat, Unsat ->
    Sat.Chaos.instance_note inst;
    garbage_model ();
    Sat
  | Some Sat.Chaos.Corrupt_model, Sat ->
    Sat.Chaos.instance_note inst;
    scramble_model ();
    Sat
  | _ -> r

(* ----- backend 1: the reference CDCL solver ----- *)

let reference_solver ?inprocess () : solver =
  let s = Solver.create ?inprocess () in
  let interrupted = Atomic.make false in
  (module struct
    let name = "reference"
    let new_var () = Solver.new_var s
    let add_clause c = Solver.add_clause s c

    let solve ?assumptions ?max_conflicts ?max_propagations ?max_nodes:_
        ?should_stop () =
      let should_stop () =
        Atomic.get interrupted
        || match should_stop with Some f -> f () | None -> false
      in
      match
        Solver.solve ?assumptions ?max_conflicts ?max_propagations
          ~should_stop s
      with
      | Solver.Sat -> Sat
      | Solver.Unsat -> Unsat
      | Solver.Unknown -> Unknown budget_reason

    let value l = Solver.value s l
    let set_proof p = Solver.set_proof s p
    let proof_capable = true

    let stats () =
      {
        vars = Solver.num_vars s;
        clauses = Solver.num_clauses s;
        learnts = Solver.num_learnts s;
        trail = Solver.trail_depth s;
        conflicts = Solver.num_conflicts s;
        decisions = Solver.num_decisions s;
        propagations = Solver.num_propagations s;
        restarts = Solver.num_restarts s;
        reduce_dbs = Solver.num_reduce_dbs s;
        simplifies = Solver.num_simplifies s;
        subsumed = Solver.num_subsumed s;
        strengthened = Solver.num_strengthened s;
        eliminated = Solver.num_eliminated s;
        probed_units = Solver.num_probed_units s;
      }

    let set_simplify_wrapper w = Solver.set_simplify_wrapper s w
    let interrupt () = Atomic.set interrupted true
  end)

(* ----- backend 2: the BDD oracle -----

   Exact SAT for small cones: conjoin every clause (and assumption
   unit) into one BDD under a node allowance.  False means Unsat; any
   other node yields a model along one true path (variables off the
   path are don't-care for that path, so defaulting them to false
   keeps the model satisfying).  A Node_limit unwinds to a structured
   Unknown — the manager is abandoned, nothing leaks into later
   solves. *)

let bdd_default_max_nodes () =
  match Sys.getenv_opt "DIAMBOUND_BDD_NODES" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> 200_000)
  | None -> 200_000

let bdd_solver ~max_nodes () : solver =
  let limit = match max_nodes with Some n -> n | None -> bdd_default_max_nodes () in
  let nvars = ref 0 in
  let nclauses = ref 0 in
  let clauses : lit list list ref = ref [] in
  let model : bool array option ref = ref None in
  let interrupted = Atomic.make false in
  let chaos = Sat.Chaos.capture () in
  (module struct
    let name = "bdd"

    let new_var () =
      let v = !nvars in
      incr nvars;
      v

    let add_clause c =
      incr nclauses;
      clauses := c :: !clauses

    let solve ?(assumptions = []) ?max_conflicts:_ ?max_propagations:_
        ?max_nodes ?should_stop () =
      model := None;
      let limit =
        match max_nodes with Some m -> min m limit | None -> limit
      in
      let stop () =
        Atomic.get interrupted
        || match should_stop with Some f -> f () | None -> false
      in
      let man = Bdd.man ~max_nodes:limit () in
      let bdd_of_lit l =
        let v = var_of l in
        if is_pos l then Bdd.var man v else Bdd.nvar man v
      in
      let exception Stopped in
      match
        let polled = ref 0 in
        let conjoin acc cl =
          if Bdd.is_false acc then acc
          else begin
            incr polled;
            if !polled land 127 = 0 && stop () then raise Stopped;
            Bdd.band man acc (Bdd.bor_list man (List.map bdd_of_lit cl))
          end
        in
        if stop () then raise Stopped;
        let conj = List.fold_left conjoin Bdd.btrue (List.rev !clauses) in
        List.fold_left (fun acc l -> conjoin acc [ l ]) conj assumptions
      with
      | conj ->
        let r =
          if Bdd.is_false conj then Unsat
          else begin
            let m = Array.make (max 1 !nvars) false in
            List.iter
              (fun (v, b) -> if v < Array.length m then m.(v) <- b)
              (Bdd.any_sat man conj);
            model := Some m;
            Sat
          end
        in
        chaos_report chaos
          ~garbage_model:(fun () ->
            model := Some (Array.make (max 1 !nvars) false))
          ~scramble_model:(fun () ->
            match !model with
            | Some m -> Array.iteri (fun i b -> m.(i) <- not b) m
            | None -> ())
          r
      | exception Bdd.Node_limit n -> Unknown (node_limit_reason n)
      | exception Stopped -> Unknown budget_reason

    let value l =
      match !model with
      | None -> invalid_arg "Backend(bdd).value: no model"
      | Some m ->
        let v = var_of l in
        let b = if v < Array.length m then m.(v) else false in
        if is_pos l then b else not b

    (* no clausal derivation to record: an Unsat answer from the
       oracle cannot be DRUP-certified, so certifying callers withhold
       it (conservative, documented in DESIGN.md §9) *)
    let set_proof _ = ()
    let proof_capable = false

    let stats () = { zero_stats with vars = !nvars; clauses = !nclauses }
    let set_simplify_wrapper _ = ()
    let interrupt () = Atomic.set interrupted true
  end)

(* ----- backend 3: external DIMACS round-trip -----

   Stateless per solve: the whole clause set plus the current
   assumptions (as unit clauses) is written as DIMACS, [cmd CNF PROOF]
   runs under /bin/sh, and the status / model / DRUP come back from
   stdout and the proof file.  Every failure mode — unset command,
   missing binary, crash, unparseable output — degrades to a
   structured backend-unavailable Unknown, never an exception. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* run [cmd] to completion, polling [stop] while it runs; stdout goes
   to a temp file whose contents are returned *)
let run_external ~stop cmd =
  let out_path = Filename.temp_file "diambound_ext" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out_path with Sys_error _ -> ())
  @@ fun () ->
  let out_fd =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out_fd;
        Unix.close devnull)
      (fun () ->
        Unix.create_process "/bin/sh"
          [| "/bin/sh"; "-c"; cmd |]
          devnull out_fd devnull)
  in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if stop () then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        `Stopped
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _, Unix.WEXITED c -> `Exited c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> `Signaled
  in
  let status = wait () in
  (status, read_file out_path)

(* status line + model integers out of solver stdout: competition "s"
   and "v" lines, or the bare SAT/UNSAT + assignment-line dialect *)
let parse_solver_output text =
  let status = ref `None in
  let v_ints = ref [] in
  let bare_ints = ref [] in
  let add_tok acc tok =
    match int_of_string_opt tok with
    | Some i when i <> 0 -> acc := i :: !acc
    | _ -> ()
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" then
        match line with
        | "s SATISFIABLE" | "SAT" | "SATISFIABLE" -> status := `Sat
        | "s UNSATISFIABLE" | "UNSAT" | "UNSATISFIABLE" -> status := `Unsat
        | "s UNKNOWN" | "UNKNOWN" | "INDETERMINATE" -> status := `Unknown
        | _ ->
          if line.[0] = 'v' then
            List.iter (add_tok v_ints) (String.split_on_char ' ' line)
          else if line.[0] <> 'c' && line.[0] <> 's' then begin
            let toks =
              String.split_on_char ' ' line |> List.filter (( <> ) "")
            in
            if
              toks <> []
              && List.for_all (fun t -> int_of_string_opt t <> None) toks
            then List.iter (add_tok bare_ints) toks
          end)
    (String.split_on_char '\n' text);
  (!status, if !v_ints <> [] then !v_ints else !bare_ints)

let external_solver_instance ~cmd () : solver =
  let nvars = ref 0 in
  let nclauses = ref 0 in
  let clauses : lit list list ref = ref [] in
  let model : bool array option ref = ref None in
  let proof : Sat.Proof.t option ref = ref None in
  let interrupted = Atomic.make false in
  let chaos = Sat.Chaos.capture () in
  let drop_proof () =
    Sat.Chaos.instance_fault chaos = Some Sat.Chaos.Drop_proof
    && begin
         Sat.Chaos.instance_note chaos;
         true
       end
  in
  (module struct
    let name = "ext"

    let new_var () =
      let v = !nvars in
      incr nvars;
      v

    let add_clause c =
      incr nclauses;
      clauses := c :: !clauses;
      match !proof with
      | Some p when not (drop_proof ()) ->
        Sat.Proof.log_input p (Array.of_list c)
      | _ -> ()

    let set_proof p =
      proof := Some p;
      (* tolerate late attachment: re-log what is already there *)
      if not (drop_proof ()) then
        List.iter
          (fun c -> Sat.Proof.log_input p (Array.of_list c))
          (List.rev !clauses)

    let proof_capable = true

    let solve ?(assumptions = []) ?max_conflicts:_ ?max_propagations:_
        ?max_nodes:_ ?should_stop () =
      model := None;
      let stop () =
        Atomic.get interrupted
        || match should_stop with Some f -> f () | None -> false
      in
      let cmd =
        match cmd with
        | Some c -> Some c
        | None -> Sys.getenv_opt "DIAMBOUND_EXT_SOLVER"
      in
      match cmd with
      | None | Some "" ->
        Unknown (unavailable "DIAMBOUND_EXT_SOLVER is not set")
      | Some cmd -> (
        try
          let cnf_path = Filename.temp_file "diambound_ext" ".cnf" in
          let proof_path = Filename.temp_file "diambound_ext" ".drup" in
          Fun.protect ~finally:(fun () ->
              List.iter
                (fun p -> try Sys.remove p with Sys_error _ -> ())
                [ cnf_path; proof_path ])
          @@ fun () ->
          let oc = open_out cnf_path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              Sat.Dimacs.print oc
                {
                  Sat.Cnf.num_vars = !nvars;
                  clauses =
                    List.rev_append !clauses
                      (List.map (fun l -> [ l ]) assumptions);
                });
          let status, text =
            run_external ~stop
              (Printf.sprintf "%s %s %s" cmd
                 (Filename.quote cnf_path)
                 (Filename.quote proof_path))
          in
          match status with
          | `Stopped -> Unknown budget_reason
          | `Signaled -> Unknown (unavailable "external solver killed")
          | `Exited code -> (
            match parse_solver_output text with
            | `Sat, ints ->
              let m = Array.make (max 1 !nvars) false in
              List.iter
                (fun i ->
                  let v = abs i - 1 in
                  if v >= 0 && v < Array.length m then m.(v) <- i > 0)
                ints;
              model := Some m;
              chaos_report chaos
                ~garbage_model:(fun () -> ())
                ~scramble_model:(fun () ->
                  match !model with
                  | Some m -> Array.iteri (fun i b -> m.(i) <- not b) m
                  | None -> ())
                Sat
            | `Unsat, _ ->
              (match !proof with
              | Some p when not (drop_proof ()) -> (
                try
                  let parsed = Sat.Proof.parse_file proof_path in
                  List.iter
                    (function
                      | Sat.Proof.Add c -> Sat.Proof.log_add p c
                      | Sat.Proof.Delete c -> Sat.Proof.log_delete p c
                      | Sat.Proof.Input _ -> ())
                    (Sat.Proof.events parsed)
                with Failure _ | Sys_error _ ->
                  (* an unreadable derivation only weakens
                     certification, never the verdict *)
                  ())
              | _ -> ());
              chaos_report chaos
                ~garbage_model:(fun () ->
                  model := Some (Array.make (max 1 !nvars) false))
                ~scramble_model:(fun () -> ())
                Unsat
            | `Unknown, _ -> Unknown budget_reason
            | `None, _ ->
              Unknown
                (unavailable
                   (Printf.sprintf "no solver status in output (exit %d)"
                      code)))
        with e -> Unknown (unavailable (Printexc.to_string e)))

    let value l =
      match !model with
      | None -> invalid_arg "Backend(ext).value: no model"
      | Some m ->
        let v = var_of l in
        let b = if v < Array.length m then m.(v) else false in
        if is_pos l then b else not b

    let stats () = { zero_stats with vars = !nvars; clauses = !nclauses }
    let set_simplify_wrapper _ = ()
    let interrupt () = Atomic.set interrupted true
  end)

(* ----- descriptors ----- *)

type t = {
  b_name : string;
  b_id : string;
  b_inprocess : bool option;
  b_create : unit -> solver;
}

let reference ?inprocess () =
  {
    b_name = "reference";
    b_id =
      (match inprocess with
      | None -> "reference"
      | Some true -> "reference+inproc"
      | Some false -> "reference-noinproc");
    b_inprocess = inprocess;
    b_create = (fun () -> reference_solver ?inprocess ());
  }

let bdd_oracle ?max_nodes () =
  {
    b_name = "bdd";
    b_id =
      (match max_nodes with
      | None -> "bdd"
      | Some n -> Printf.sprintf "bdd:%d" n);
    b_inprocess = None;
    b_create = (fun () -> bdd_solver ~max_nodes ());
  }

let external_solver ?cmd () =
  {
    b_name = "ext";
    b_id = (match cmd with None -> "ext" | Some c -> "ext:" ^ c);
    b_inprocess = None;
    b_create = (fun () -> external_solver_instance ~cmd ());
  }

let is_reference b = String.equal b.b_name "reference"
let instantiate b = b.b_create ()
let create ?inprocess () = reference_solver ?inprocess ()

(* ----- selection ----- *)

type spec = Single of t | Race of t list

let backends = function Single b -> [ b ] | Race bs -> bs

let spec_id = function
  | Single b -> b.b_id
  | Race bs -> "race:" ^ String.concat "+" (List.map (fun b -> b.b_id) bs)

let of_name n =
  match String.lowercase_ascii (String.trim n) with
  | "reference" | "cdcl" -> Ok (reference ())
  | "bdd" | "bdd-oracle" -> Ok (bdd_oracle ())
  | "ext" | "external" | "dimacs" -> Ok (external_solver ())
  | other ->
    Error
      (Printf.sprintf
         "unknown backend %S (expected reference, bdd, ext or race)" other)

let race_pool () =
  [ reference (); bdd_oracle () ]
  @
  match Sys.getenv_opt "DIAMBOUND_EXT_SOLVER" with
  | Some cmd when String.trim cmd <> "" -> [ external_solver () ]
  | _ -> []

let spec_of_string n =
  match String.lowercase_ascii (String.trim n) with
  | "race" -> Ok (Race (race_pool ()))
  | _ -> Result.map (fun b -> Single b) (of_name n)

let default_spec : spec option ref = ref None
let set_default s = default_spec := Some s

let default () =
  match !default_spec with
  | Some s -> s
  | None -> (
    match Sys.getenv_opt "DIAMBOUND_BACKEND" with
    | Some n when String.trim n <> "" -> (
      match spec_of_string n with
      | Ok s -> s
      | Error _ -> Single (reference ()))
    | _ -> Single (reference ()))

let solver_of = function
  | Some b -> instantiate b
  | None -> (
    match backends (default ()) with
    | b :: _ -> instantiate b
    | [] -> reference_solver ())
