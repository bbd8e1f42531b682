type lit = int

let pos v = 2 * v
let neg_of v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0

type result = Sat | Unsat | Unknown

type clause = {
  mutable lits : int array;
  mutable act : float;
  learnt : bool;
  mutable deleted : bool;
  mutable lbd : int; (* glue: distinct decision levels at learn time *)
  mutable used : int; (* reduce_db epoch of last use in conflict analysis *)
}

let dummy_clause =
  { lits = [||]; act = 0.; learnt = false; deleted = true; lbd = 0; used = 0 }

type t = {
  mutable nvars : int;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  mutable watches : clause Vec.t array; (* per literal *)
  mutable assigns : int array; (* per var: -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : clause array; (* dummy_clause when none *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable heap : int array; (* binary max-heap of vars by activity *)
  mutable heap_size : int;
  mutable heap_pos : int array; (* var -> heap index, -1 if absent *)
  trail : int Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  mutable seen : bool array;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable max_learnts : float;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable reduce_dbs : int;
  mutable last_solve_sat : bool;
  (* inprocessing (see Simplify) *)
  mutable simplify_enabled : bool; (* captured from the global default *)
  mutable simplify_cfg : Simplify.config;
  mutable simplify_wrapper : (unit -> unit) -> unit; (* Obs instrumentation *)
  mutable next_simplify : int; (* conflict count that triggers a pass *)
  mutable simplify_interval : int;
  mutable clauses_since_simplify : int;
  mutable frozen : bool array; (* per var: protected from elimination *)
  mutable eliminated : bool array; (* per var: currently eliminated *)
  elim_stack : (int * int array array) Vec.t; (* reconstruction stack *)
  mutable lvl_stamp : int array; (* scratch for LBD computation *)
  mutable stamp : int;
  mutable simplifies : int;
  mutable subsumed : int;
  mutable strengthened : int;
  mutable eliminated_vars : int;
  mutable probed_units : int;
  mutable core_deleted : int; (* must stay 0: core learnts never age out *)
  mutable proof : Proof.t option;
  (* Chaos.Corrupt_model negates the *reported* model only: the flag is
     consulted by [value], never written into [assigns]/[phase], so the
     incremental search state stays intact across injections *)
  mutable corrupt_model : bool;
  (* fault-injection config captured at creation: concurrent solvers
     each consult their own instance (see Chaos) *)
  chaos : Chaos.instance;
}

(* A boolean environment flag, read on first use.  Not a [Lazy]:
   solvers run on several domains at once, and two domains forcing one
   suspension together raise [CamlinternalLazy.Undefined]; reading the
   variable twice is harmless. *)
let env_flag name =
  let cached = Atomic.make None in
  fun () ->
    match Atomic.get cached with
    | Some b -> b
    | None ->
      let b =
        match Sys.getenv_opt name with
        | Some ("1" | "true" | "yes") -> true
        | _ -> false
      in
      Atomic.set cached (Some b);
      b

(* Inprocessing default: process-global, captured per solver instance
   at creation (like Chaos) so concurrent solvers stay independent.
   The CLI tools set it from [--no-inprocess]; otherwise the
   [DIAMBOUND_NO_INPROCESS] environment variable decides. *)
let env_no_inprocess = env_flag "DIAMBOUND_NO_INPROCESS"

let inprocess_override = ref None
let set_inprocess_default b = inprocess_override := Some b

let inprocess_default () =
  match !inprocess_override with
  | Some b -> b
  | None -> not (env_no_inprocess ())

let create ?inprocess () =
  {
    nvars = 0;
    clauses = Vec.create ~dummy:dummy_clause ();
    learnts = Vec.create ~dummy:dummy_clause ();
    watches = [||];
    assigns = [||];
    level = [||];
    reason = [||];
    activity = [||];
    phase = [||];
    heap = [||];
    heap_size = 0;
    heap_pos = [||];
    trail = Vec.create ~dummy:0 ();
    trail_lim = Vec.create ~dummy:0 ();
    qhead = 0;
    seen = [||];
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    max_learnts = 4000.;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    reduce_dbs = 0;
    last_solve_sat = false;
    simplify_enabled =
      (match inprocess with Some b -> b | None -> inprocess_default ());
    simplify_cfg = Simplify.default;
    simplify_wrapper = (fun f -> f ());
    next_simplify = 0;
    simplify_interval = 1000;
    clauses_since_simplify = 0;
    frozen = [||];
    eliminated = [||];
    elim_stack = Vec.create ~dummy:(0, [||]) ();
    lvl_stamp = [||];
    stamp = 0;
    simplifies = 0;
    subsumed = 0;
    strengthened = 0;
    eliminated_vars = 0;
    probed_units = 0;
    core_deleted = 0;
    proof = None;
    corrupt_model = false;
    chaos = Chaos.capture ();
  }

let set_proof s p = s.proof <- Some p
let proof s = s.proof

(* Append a proof event.  A [Drop_proof] fault silently discards the
   event (simulating a lost or truncated proof file) but counts the
   injection so tests can assert the fault actually fired. *)
let log_event s f =
  match s.proof with
  | None -> ()
  | Some p ->
    if Chaos.instance_fault s.chaos = Some Chaos.Drop_proof then
      Chaos.instance_note s.chaos
    else f p

let num_vars s = s.nvars
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations
let num_restarts s = s.restarts
let num_reduce_dbs s = s.reduce_dbs
let num_clauses s = Vec.size s.clauses
let num_learnts s = Vec.size s.learnts
let trail_depth s = Vec.size s.trail
let num_simplifies s = s.simplifies
let num_subsumed s = s.subsumed
let num_strengthened s = s.strengthened
let num_eliminated s = s.eliminated_vars
let num_probed_units s = s.probed_units
let num_core_deleted s = s.core_deleted
let set_max_learnts s n = s.max_learnts <- float_of_int n
let max_learnts s = int_of_float s.max_learnts
let set_inprocess s b = s.simplify_enabled <- b
let set_simplify_wrapper s f = s.simplify_wrapper <- f

let num_watch_entries s =
  let total = ref 0 in
  for l = 0 to (2 * s.nvars) - 1 do
    total := !total + Vec.size s.watches.(l)
  done;
  !total

let num_dead_watches s =
  let dead = ref 0 in
  for l = 0 to (2 * s.nvars) - 1 do
    Vec.iter (fun c -> if c.deleted then incr dead) s.watches.(l)
  done;
  !dead

let grow_array a n dummy =
  let old = Array.length a in
  if n <= old then a
  else begin
    let b = Array.make (max n (max 16 (2 * old))) dummy in
    Array.blit a 0 b 0 old;
    b
  end

(* ----- activity heap (max-heap keyed by var activity) ----- *)

let heap_less s v w = s.activity.(v) > s.activity.(w)

let heap_swap s i j =
  let v = s.heap.(i) and w = s.heap.(j) in
  s.heap.(i) <- w;
  s.heap.(j) <- v;
  s.heap_pos.(w) <- i;
  s.heap_pos.(v) <- j

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s (s.heap_size - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

(* ----- variables ----- *)

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assigns <- grow_array s.assigns (v + 1) (-1);
  s.level <- grow_array s.level (v + 1) 0;
  s.reason <- grow_array s.reason (v + 1) dummy_clause;
  s.activity <- grow_array s.activity (v + 1) 0.;
  s.phase <- grow_array s.phase (v + 1) false;
  s.heap <- grow_array s.heap (v + 1) 0;
  s.heap_pos <- grow_array s.heap_pos (v + 1) (-1);
  s.seen <- grow_array s.seen (v + 1) false;
  s.frozen <- grow_array s.frozen (v + 1) false;
  s.eliminated <- grow_array s.eliminated (v + 1) false;
  (* decision levels range over 0..nvars *)
  s.lvl_stamp <- grow_array s.lvl_stamp (v + 2) 0;
  if Array.length s.watches < 2 * (v + 1) then begin
    let old = Array.length s.watches in
    let w =
      Array.init
        (max (2 * (v + 1)) (2 * old))
        (fun i ->
          if i < old then s.watches.(i) else Vec.create ~dummy:dummy_clause ())
    in
    s.watches <- w
  end;
  s.assigns.(v) <- -1;
  s.heap_pos.(v) <- -1;
  heap_insert s v;
  v

(* value of a literal: -1 unassigned, 0 false, 1 true *)
let lvalue s l =
  let a = s.assigns.(var_of l) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level s = Vec.size s.trail_lim

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let var_decay s = s.var_inc <- s.var_inc *. (1. /. 0.95)

(* Glue (LBD): number of distinct non-root decision levels among the
   literals.  Computed while the literals are still assigned. *)
let compute_lbd s lits =
  s.stamp <- s.stamp + 1;
  let n = ref 0 in
  Array.iter
    (fun l ->
      let lv = s.level.(var_of l) in
      if lv > 0 && s.lvl_stamp.(lv) <> s.stamp then begin
        s.lvl_stamp.(lv) <- s.stamp;
        incr n
      end)
    lits;
  !n

let cla_bump s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e20 then begin
    Vec.iter (fun c -> c.act <- c.act *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc *. (1. /. 0.999)

let enqueue s l reason =
  let v = var_of l in
  s.assigns.(v) <- (if is_pos l then 1 else 0);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let watch s l c = Vec.push s.watches.(l) c

(* ----- propagation ----- *)

let propagate s =
  let conflict = ref dummy_clause in
  while !conflict == dummy_clause && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = negate p in
    let ws = s.watches.(false_lit) in
    let n = Vec.size ws in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if not c.deleted then begin
        (* make sure the false literal is at position 1 *)
        if c.lits.(0) = false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        let first = c.lits.(0) in
        if lvalue s first = 1 then begin
          Vec.set ws !j c;
          incr j
        end
        else begin
          (* look for a new literal to watch *)
          let len = Array.length c.lits in
          let rec find k = if k >= len then -1 else if lvalue s c.lits.(k) <> 0 then k else find (k + 1) in
          let k = find 2 in
          if k >= 0 then begin
            c.lits.(1) <- c.lits.(k);
            c.lits.(k) <- false_lit;
            watch s c.lits.(1) c
          end
          else begin
            (* unit or conflicting *)
            Vec.set ws !j c;
            incr j;
            if lvalue s first = 0 then begin
              conflict := c;
              s.qhead <- Vec.size s.trail;
              (* keep the remaining watches *)
              while !i < n do
                Vec.set ws !j (Vec.get ws !i);
                incr j;
                incr i
              done
            end
            else enqueue s first c
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !conflict

(* ----- backtracking ----- *)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = var_of l in
      s.phase.(v) <- is_pos l;
      s.assigns.(v) <- -1;
      s.reason.(v) <- dummy_clause;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* ----- conflict analysis (first UIP) ----- *)

let analyze s confl =
  let out = Vec.create ~dummy:0 () in
  Vec.push out 0;
  (* slot for the asserting literal *)
  let to_clear = Vec.create ~dummy:0 () in
  let path = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.size s.trail - 1) in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    if !c.learnt then begin
      cla_bump s !c;
      (* tier bookkeeping: the clause is useful right now *)
      !c.used <- s.reduce_dbs;
      let glue = compute_lbd s !c.lits in
      if glue < !c.lbd then !c.lbd <- glue
    end;
    let start = if !p < 0 then 0 else 1 in
    for k = start to Array.length !c.lits - 1 do
      let q = !c.lits.(k) in
      let v = var_of q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        var_bump s v;
        s.seen.(v) <- true;
        Vec.push to_clear v;
        if s.level.(v) >= decision_level s then incr path
        else Vec.push out q
      end
    done;
    (* next literal on the trail to resolve on *)
    while not s.seen.(var_of (Vec.get s.trail !index)) do
      decr index
    done;
    p := Vec.get s.trail !index;
    decr index;
    s.seen.(var_of !p) <- false;
    decr path;
    if !path > 0 then c := s.reason.(var_of !p) else continue := false
  done;
  Vec.set out 0 (negate !p);
  (* basic clause minimization: drop literals implied by their reason *)
  let redundant q =
    let r = s.reason.(var_of q) in
    r != dummy_clause
    && Array.for_all
         (fun x ->
           var_of x = var_of q || s.seen.(var_of x) || s.level.(var_of x) = 0)
         r.lits
  in
  let minimized = Vec.create ~dummy:0 () in
  Vec.push minimized (Vec.get out 0);
  for i = 1 to Vec.size out - 1 do
    let q = Vec.get out i in
    if not (redundant q) then Vec.push minimized q
  done;
  Vec.iter (fun v -> s.seen.(v) <- false) to_clear;
  (* compute backtrack level; move max-level literal to slot 1 *)
  let bt =
    if Vec.size minimized = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Vec.size minimized - 1 do
        if
          s.level.(var_of (Vec.get minimized i))
          > s.level.(var_of (Vec.get minimized !max_i))
        then max_i := i
      done;
      let tmp = Vec.get minimized 1 in
      Vec.set minimized 1 (Vec.get minimized !max_i);
      Vec.set minimized !max_i tmp;
      s.level.(var_of (Vec.get minimized 1))
    end
  in
  (Array.of_list (Vec.to_list minimized), bt)

(* ----- learnt database reduction ----- *)

let locked s c =
  Array.length c.lits > 0
  &&
  let v = var_of c.lits.(0) in
  s.assigns.(v) >= 0 && s.reason.(v) == c

(* Drop deleted clauses from every watch list.  Without this sweep a
   deleted clause stays watched until the watched literal happens to
   propagate, so long incremental runs scan ever more dead entries. *)
let sweep_watches s =
  for l = 0 to (2 * s.nvars) - 1 do
    let ws = s.watches.(l) in
    let n = Vec.size ws in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let c = Vec.get ws i in
      if not c.deleted then begin
        if !j < i then Vec.set ws !j c;
        incr j
      end
    done;
    Vec.shrink ws !j
  done

(* LBD tier boundaries: learnts with glue <= core_lbd are kept for the
   lifetime of the solver; glue <= tier2_lbd survive while recently
   used in conflict analysis; the rest (the local tier) compete by
   activity and the worst half ages out. *)
let core_lbd = 3
let tier2_lbd = 6

let reduce_db s =
  s.reduce_dbs <- s.reduce_dbs + 1;
  let keep = Vec.create ~dummy:dummy_clause () in
  let local = Vec.create ~dummy:dummy_clause () in
  Vec.iter
    (fun c ->
      if locked s c || Array.length c.lits <= 2 || c.lbd <= core_lbd then
        Vec.push keep c
      else if c.lbd <= tier2_lbd && c.used + 2 >= s.reduce_dbs then
        Vec.push keep c
      else Vec.push local c)
    s.learnts;
  Vec.sort (fun a b -> compare a.act b.act) local;
  let n = Vec.size local in
  let limit = n / 2 in
  for i = 0 to n - 1 do
    let c = Vec.get local i in
    if i < limit then begin
      if c.lbd <= core_lbd then s.core_deleted <- s.core_deleted + 1;
      c.deleted <- true;
      log_event s (fun p -> Proof.log_delete p c.lits)
    end
    else Vec.push keep c
  done;
  Vec.clear s.learnts;
  Vec.iter (fun c -> Vec.push s.learnts c) keep;
  sweep_watches s;
  (* let the learnt budget breathe: geometric growth, with a floor above
     the survivor count so the trigger cannot re-fire on the very next
     conflict (the old one-shot sizing thrashed reduce_db on long runs) *)
  s.max_learnts <-
    Float.max (s.max_learnts *. 1.1)
      ((float_of_int (Vec.size s.learnts) *. 1.25) +. 128.)

(* ----- variable reintroduction (undoing elimination) ----- *)

(* Restore an eliminated variable: the clauses removed with it re-enter
   the live set so later clauses or assumptions may mention it again.
   This is proof-silent by design — elimination never logged Delete
   events for these clauses, so the DRUP checker still holds them and
   re-adding them needs no (non-RUP) Add events.  Stored clauses may
   mention variables eliminated later; those come back first. *)
let rec reintroduce s v =
  if s.eliminated.(v) then begin
    s.eliminated.(v) <- false;
    if s.assigns.(v) < 0 then heap_insert s v;
    let mine = ref [] in
    let kept = Vec.create ~dummy:(0, [||]) () in
    Vec.iter
      (fun ((w, css) as e) ->
        if w = v then mine := css :: !mine else Vec.push kept e)
      s.elim_stack;
    Vec.clear s.elim_stack;
    Vec.iter (fun e -> Vec.push s.elim_stack e) kept;
    List.iter
      (fun css ->
        Array.iter
          (fun lits ->
            Array.iter (fun l -> reintroduce s (var_of l)) lits;
            attach_restored s lits)
          css)
      !mine
  end

and attach_restored s lits =
  if s.ok && not (Array.exists (fun l -> lvalue s l = 1) lits) then begin
    let live = List.filter (fun l -> lvalue s l <> 0) (Array.to_list lits) in
    match live with
    | [] ->
      (* every literal is root-false: the empty clause is RUP *)
      s.ok <- false;
      log_event s (fun p -> Proof.log_add p [||])
    | [ l ] ->
      enqueue s l dummy_clause;
      if propagate s != dummy_clause then begin
        s.ok <- false;
        log_event s (fun p -> Proof.log_add p [||])
      end
    | l0 :: l1 :: _ ->
      let c =
        {
          lits = Array.of_list live;
          act = 0.;
          learnt = false;
          deleted = false;
          lbd = 0;
          used = 0;
        }
      in
      Vec.push s.clauses c;
      watch s l0 c;
      watch s l1 c
  end

(* ----- clause addition ----- *)

let add_clause s lits =
  if s.ok then begin
    if decision_level s > 0 then
      invalid_arg "Solver.add_clause: only legal at decision level 0";
    List.iter
      (fun l ->
        let v = var_of l in
        if s.eliminated.(v) then begin
          (* the caller still references v from outside: reintroduce it
             and freeze it, so incremental encodings (BMC frames naming
             last frame's boundary vars) don't churn through repeated
             eliminate/reintroduce cycles that pile up resolvents *)
          reintroduce s v;
          s.frozen.(v) <- true
        end)
      lits;
    (* the axiom is the clause as given; the simplifications below are
       the solver's own business and stay out of the proof *)
    log_event s (fun p -> Proof.log_input p (Array.of_list lits));
    (* dedup and detect tautology / satisfied / falsified-at-0 literals;
       sorting puts l and (negate l) adjacent, so one pass suffices *)
    let lits = List.sort_uniq compare lits in
    let rec complementary = function
      | a :: (b :: _ as rest) -> a lxor b = 1 || complementary rest
      | _ -> false
    in
    let tautology =
      complementary lits || List.exists (fun l -> lvalue s l = 1) lits
    in
    if s.ok && not tautology then begin
      let lits = List.filter (fun l -> lvalue s l <> 0) lits in
      match lits with
      | [] ->
        s.ok <- false;
        log_event s (fun p -> Proof.log_add p [||])
      | [ l ] ->
        enqueue s l dummy_clause;
        if propagate s != dummy_clause then begin
          s.ok <- false;
          log_event s (fun p -> Proof.log_add p [||])
        end
      | l0 :: l1 :: _ ->
        let c =
          {
            lits = Array.of_list lits;
            act = 0.;
            learnt = false;
            deleted = false;
            lbd = 0;
            used = 0;
          }
        in
        Vec.push s.clauses c;
        s.clauses_since_simplify <- s.clauses_since_simplify + 1;
        watch s l0 c;
        watch s l1 c
    end
  end

let record_learnt s lits lbd =
  (* every learnt clause is a resolvent, hence RUP against the clauses
     live at this point — exactly what the Drup checker verifies *)
  log_event s (fun p -> Proof.log_add p lits);
  if Array.length lits = 1 then enqueue s lits.(0) dummy_clause
  else begin
    let c =
      { lits; act = 0.; learnt = true; deleted = false; lbd; used = s.reduce_dbs }
    in
    Vec.push s.learnts c;
    watch s lits.(0) c;
    watch s lits.(1) c;
    cla_bump s c;
    enqueue s lits.(0) c
  end

(* ----- inprocessing ----- *)

let run_simplify s =
  if s.ok && decision_level s = 0 then begin
    s.simplifies <- s.simplifies + 1;
    let records = ref [] in
    Vec.iter
      (fun c -> if not c.deleted then records := c :: !records)
      s.clauses;
    let records = Array.of_list (List.rev !records) in
    let r =
      Simplify.run ~config:s.simplify_cfg ~nvars:s.nvars
        ~frozen:(fun v -> s.frozen.(v) || s.eliminated.(v))
        ~value:(lvalue s)
        ~log_add:(fun lits -> log_event s (fun p -> Proof.log_add p lits))
        ~log_delete:(fun lits -> log_event s (fun p -> Proof.log_delete p lits))
        (Array.to_list (Array.map (fun c -> c.lits) records))
    in
    s.subsumed <- s.subsumed + r.Simplify.n_subsumed;
    s.strengthened <- s.strengthened + r.Simplify.n_strengthened;
    s.probed_units <- s.probed_units + r.Simplify.n_probed;
    s.eliminated_vars <- s.eliminated_vars + List.length r.Simplify.eliminated;
    (* swap in the simplified problem clause set (proof-wise these are
       the same clauses: all additions/removals were logged above).
       Untouched clauses keep their original record — and original
       watch pair — so a pass that changes nothing perturbs nothing. *)
    let kept = Array.make (Array.length records) false in
    Vec.clear s.clauses;
    List.iter
      (function
        | Simplify.Kept i ->
          kept.(i) <- true;
          Vec.push s.clauses records.(i)
        | Simplify.Fresh lits ->
          let c =
            { lits; act = 0.; learnt = false; deleted = false; lbd = 0; used = 0 }
          in
          Vec.push s.clauses c;
          watch s lits.(0) c;
          watch s lits.(1) c)
      r.Simplify.clauses;
    Array.iteri (fun i c -> if not kept.(i) then c.deleted <- true) records;
    (* eliminated variables: record for model reconstruction, and drop
       any learnt that mentions one (it would otherwise keep the
       variable alive in the watch structures) *)
    if r.Simplify.eliminated <> [] then begin
      List.iter
        (fun (v, css) ->
          s.eliminated.(v) <- true;
          Vec.push s.elim_stack (v, css))
        r.Simplify.eliminated;
      let keep = Vec.create ~dummy:dummy_clause () in
      Vec.iter
        (fun c ->
          if Array.exists (fun l -> s.eliminated.(var_of l)) c.lits then begin
            c.deleted <- true;
            log_event s (fun p -> Proof.log_delete p c.lits)
          end
          else Vec.push keep c)
        s.learnts;
      Vec.clear s.learnts;
      Vec.iter (fun c -> Vec.push s.learnts c) keep
    end;
    sweep_watches s;
    if r.Simplify.contradiction then s.ok <- false
    else
      (* fold the derived root units into the trail *)
      List.iter
        (fun l ->
          if s.ok then
            match lvalue s l with
            | 1 -> ()
            | 0 ->
              s.ok <- false;
              log_event s (fun p -> Proof.log_add p [||])
            | _ ->
              enqueue s l dummy_clause;
              if propagate s != dummy_clause then begin
                s.ok <- false;
                log_event s (fun p -> Proof.log_add p [||])
              end)
        r.Simplify.units;
    s.clauses_since_simplify <- 0
  end

(* Run a pass when the conflict schedule or clause-database growth says
   so; called at solve entry and restart boundaries (decision level 0).
   The wrapper hook lets the observability layer time the pass without
   lib/sat depending on lib/obs. *)
let maybe_simplify s =
  if
    s.simplify_enabled && s.ok
    && decision_level s = 0
    && (s.conflicts >= s.next_simplify
       || s.clauses_since_simplify > (Vec.size s.clauses / 3) + 256)
  then begin
    s.simplify_wrapper (fun () -> run_simplify s);
    s.simplify_interval <- s.simplify_interval + (s.simplify_interval / 2);
    s.next_simplify <- s.conflicts + s.simplify_interval
  end

let simplify_now s =
  if decision_level s > 0 then
    invalid_arg "Solver.simplify_now: only legal at decision level 0";
  s.simplify_wrapper (fun () -> run_simplify s)

let freeze s v = s.frozen.(v) <- true

(* ----- search ----- *)

let luby y x =
  (* Finite subsequences of the Luby sequence *)
  let rec go size seq x =
    if size - 1 = x then (seq, x)
    else if size - 1 > x then
      let size = (size - 1) / 2 in
      go size (seq - 1) (x mod size)
    else (seq, x)
  in
  let rec outer size seq =
    if size < x + 1 then outer ((2 * size) + 1) (seq + 1) else (size, seq)
  in
  let size, seq = outer 1 0 in
  let seq, _ = go size seq x in
  y ** float_of_int seq

exception Found_unsat
exception Found_sat

let pick_branch s =
  let rec go () =
    if s.heap_size = 0 then -1
    else begin
      let v = heap_pop s in
      if s.assigns.(v) < 0 && not s.eliminated.(v) then v else go ()
    end
  in
  go ()

(* [assumptions] is an array snapshot: [search] indexes it by decision
   level on every decision, which was O(|assumptions|) as a list. *)
let search s assumptions conflict_budget =
  let conflicts_here = ref 0 in
  let rec loop () =
    let confl = propagate s in
    if confl != dummy_clause then begin
      s.conflicts <- s.conflicts + 1;
      incr conflicts_here;
      if decision_level s = 0 then begin
        s.ok <- false;
        log_event s (fun p -> Proof.log_add p [||]);
        raise Found_unsat
      end;
      let learnt, bt = analyze s confl in
      (* glue while every literal is still assigned at its true level *)
      let lbd = compute_lbd s learnt in
      cancel_until s bt;
      record_learnt s learnt lbd;
      var_decay s;
      cla_decay s;
      if float_of_int (Vec.size s.learnts) > s.max_learnts then reduce_db s;
      loop ()
    end
    else if
      conflict_budget >= 0 && !conflicts_here >= conflict_budget
    then begin
      cancel_until s 0;
      `Restart
    end
    else begin
      (* establish assumptions as pseudo-decisions *)
      let dl = decision_level s in
      if dl < Array.length assumptions then begin
        let a = assumptions.(dl) in
        match lvalue s a with
        | 1 ->
          Vec.push s.trail_lim (Vec.size s.trail);
          loop ()
        | 0 -> raise Found_unsat
        | _ ->
          Vec.push s.trail_lim (Vec.size s.trail);
          enqueue s a dummy_clause;
          loop ()
      end
      else begin
        let v = pick_branch s in
        if v < 0 then raise Found_sat
        else begin
          s.decisions <- s.decisions + 1;
          Vec.push s.trail_lim (Vec.size s.trail);
          enqueue s (if s.phase.(v) then pos v else neg_of v) dummy_clause;
          loop ()
        end
      end
    end
  in
  loop ()

let value s l =
  if not s.last_solve_sat then
    invalid_arg "Solver.value: no model (last solve did not return Sat)";
  let v = var_of l in
  let b = if s.assigns.(v) >= 0 then s.assigns.(v) = 1 else s.phase.(v) in
  let b = if s.corrupt_model then not b else b in
  if is_pos l then b else not b

let model s =
  if not s.last_solve_sat then
    invalid_arg "Solver.model: no model (last solve did not return Sat)";
  Array.init s.nvars (fun v -> value s (pos v))

(* Certify a Sat answer: the reported model must satisfy every live
   problem clause, agree with every top-level assignment, and satisfy
   every assumption.  The top-level check is what covers clauses
   dropped or strengthened at add time: a clause is only dropped when
   a top-level assignment satisfies it (unit inputs in particular are
   folded into the top level and never stored), so a model honouring
   the top level satisfies the dropped clauses too. *)
let check_model ?(assumptions = []) s =
  if not s.last_solve_sat then
    Error "no model: last solve did not return Sat"
  else begin
    let root_end =
      if Vec.size s.trail_lim > 0 then Vec.get s.trail_lim 0
      else Vec.size s.trail
    in
    let bad_roots = ref 0 in
    for i = 0 to root_end - 1 do
      if not (value s (Vec.get s.trail i)) then incr bad_roots
    done;
    let bad = ref 0 in
    Vec.iter
      (fun c ->
        if (not c.deleted) && not (Array.exists (fun l -> value s l) c.lits)
        then incr bad)
      s.clauses;
    if !bad_roots > 0 then
      Error
        (Printf.sprintf "model contradicts %d top-level assignment(s)"
           !bad_roots)
    else if !bad > 0 then
      Error (Printf.sprintf "model falsifies %d problem clause(s)" !bad)
    else
      match List.filter (fun a -> not (value s a)) assumptions with
      | [] -> Ok ()
      | falsified ->
        Error
          (Printf.sprintf "model falsifies %d assumption(s)"
             (List.length falsified))
  end

(* With DIAMBOUND_CHECK_MODEL=1 every genuine Sat answer is
   cross-checked before it leaves [solve] (and before any armed fault
   corrupts the report).  A failure here is a solver bug, not an
   injected fault, so it raises instead of degrading. *)
let debug_check_model = env_flag "DIAMBOUND_CHECK_MODEL"

(* Extend a model over eliminated variables: replay the elimination
   stack backwards, flipping each variable's saved phase whenever one
   of the clauses stored at its elimination is not yet satisfied.  The
   stored clauses only mention variables that are live — or eliminated
   later, hence already reconstructed — at that stack depth, so a
   single reverse sweep fixes everything. *)
let extend_model s =
  let lit_true l =
    let w = var_of l in
    let b = if s.assigns.(w) >= 0 then s.assigns.(w) = 1 else s.phase.(w) in
    if is_pos l then b else not b
  in
  for i = Vec.size s.elim_stack - 1 downto 0 do
    let v, css = Vec.get s.elim_stack i in
    if s.eliminated.(v) then
      Array.iter
        (fun lits ->
          if not (Array.exists lit_true lits) then
            Array.iter
              (fun l -> if var_of l = v then s.phase.(v) <- is_pos l)
              lits)
        css
  done

let solve ?(assumptions = []) ?max_conflicts ?max_propagations ?should_stop s =
  s.last_solve_sat <- false;
  s.corrupt_model <- false;
  (* assumption variables are pinned: they may never be eliminated, and
     any that already were must be restored before this solve *)
  List.iter
    (fun a ->
      let v = var_of a in
      s.frozen.(v) <- true;
      if s.eliminated.(v) then reintroduce s v)
    assumptions;
  let assumptions_a = Array.of_list assumptions in
  let final = ref (if s.ok then Unknown else Unsat) in
  if s.ok then begin
    cancel_until s 0;
    s.max_learnts <-
      max s.max_learnts (float_of_int (Vec.size s.clauses) /. 3.);
    (* per-call allowances, counted as deltas against the lifetime
       statistics and checked only at restart boundaries so the search
       loop stays clean *)
    let conflicts0 = s.conflicts in
    let propagations0 = s.propagations in
    let out_of_budget () =
      (match max_conflicts with
      | Some m -> s.conflicts - conflicts0 >= m
      | None -> false)
      || (match max_propagations with
         | Some m -> s.propagations - propagations0 >= m
         | None -> false)
      || match should_stop with Some f -> f () | None -> false
    in
    (* default Unknown: [run] only returns normally on exhaustion *)
    let result = ref Unknown in
    (try
       maybe_simplify s;
       if not s.ok then raise Found_unsat;
       let restart = ref 0 in
       let rec run () =
         if out_of_budget () then ()
         else begin
           let luby_budget = int_of_float (100. *. luby 2. !restart) in
           let budget =
             (* never overshoot a conflict allowance by a whole Luby
                window: cap the inner budget at what remains *)
             match max_conflicts with
             | Some m -> min luby_budget (max 1 (m - (s.conflicts - conflicts0)))
             | None -> luby_budget
           in
           match search s assumptions_a budget with
           | `Restart ->
             s.restarts <- s.restarts + 1;
             incr restart;
             maybe_simplify s;
             if not s.ok then raise Found_unsat;
             run ()
         end
       in
       run ()
     with
    | Found_sat -> result := Sat
    | Found_unsat -> result := Unsat);
    if !result = Sat then begin
      (* save the model in the phase array, then release decisions *)
      for v = 0 to s.nvars - 1 do
        if s.assigns.(v) >= 0 then s.phase.(v) <- s.assigns.(v) = 1
      done;
      extend_model s
    end;
    cancel_until s 0;
    final := !result
  end;
  s.last_solve_sat <- !final = Sat;
  if s.last_solve_sat && debug_check_model () then begin
    match check_model ~assumptions s with
    | Ok () -> ()
    | Error msg -> failwith ("DIAMBOUND_CHECK_MODEL: " ^ msg)
  end;
  (* fault injection happens at the reporting boundary, after the
     debug cross-check of the genuine answer *)
  (match Chaos.instance_fault s.chaos with
  | Some Chaos.Flip_to_unsat when !final = Sat ->
    Chaos.instance_note s.chaos;
    s.last_solve_sat <- false;
    final := Unsat
  | Some Chaos.Flip_to_sat when !final = Unsat ->
    Chaos.instance_note s.chaos;
    (* the phase store becomes the "model": arbitrary garbage *)
    s.last_solve_sat <- true;
    final := Sat
  | Some Chaos.Corrupt_model when !final = Sat ->
    Chaos.instance_note s.chaos;
    s.corrupt_model <- true
  | _ -> ());
  !final

let pp_stats ppf s =
  Format.fprintf ppf
    "vars=%d clauses=%d learnts=%d conflicts=%d decisions=%d propagations=%d \
     restarts=%d reduce_dbs=%d simplifies=%d subsumed=%d strengthened=%d \
     eliminated=%d probed=%d"
    s.nvars (Vec.size s.clauses) (Vec.size s.learnts) s.conflicts s.decisions
    s.propagations s.restarts s.reduce_dbs s.simplifies s.subsumed
    s.strengthened s.eliminated_vars s.probed_units
