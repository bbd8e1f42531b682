type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* ----- printing ----- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if not (Float.is_finite f) then
    (* JSON has no nan/inf literal, and "%.17g" would emit one; null
       is the conventional stand-in and [parse] maps it back to nan *)
    "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    (* keep integral durations short; parses back to the same float *)
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string j =
  let b = Buffer.create 1024 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape_string b s
    | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          go item)
        items;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b key;
          Buffer.add_char b ':';
          go value)
        fields;
      Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b

(* ----- parsing (recursive descent) ----- *)

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "Report.parse: %s at offset %d" msg !pos) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = Stdlib.incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected '%c', found '%c'" c c')
    | None -> fail (Printf.sprintf "expected '%c', found end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub text !pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> fail "bad \\u escape"
          in
          pos := !pos + 4;
          (* UTF-8 encode the BMP code point *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
          end;
          go ()
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ())
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
        advance ();
        go ()
      | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance ();
        go ()
      | Some _ | None -> ()
    in
    go ();
    let s = String.sub text start (!pos - start) in
    if !is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> fail (Printf.sprintf "bad number %S" s)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (key, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (f :: acc)
          | Some '}' ->
            advance ();
            List.rev (f :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ----- snapshot conversion ----- *)

let json_of_snapshot (s : Stats.snapshot) =
  Obj
    [
      ("counters", Obj (List.map (fun (name, n) -> (name, Int n)) s.Stats.counters));
      ( "spans",
        Obj
          (List.map
             (fun (name, sp) ->
               ( name,
                 Obj
                   [
                     ("calls", Int sp.Stats.calls);
                     ("total_s", Float sp.Stats.total_s);
                     ("max_s", Float sp.Stats.max_s);
                   ] ))
             s.Stats.spans) );
    ]

(* ----- human rendering ----- *)

let pp_human ppf (s : Stats.snapshot) =
  let width =
    List.fold_left
      (fun acc (name, _) -> max acc (String.length name))
      24
      (List.map (fun (n, c) -> (n, `C c)) s.Stats.counters
      @ List.map (fun (n, sp) -> (n, `S sp)) s.Stats.spans)
  in
  if s.Stats.counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, n) -> Format.fprintf ppf "  %-*s %12d@." width name n)
      s.Stats.counters
  end;
  if s.Stats.spans <> [] then begin
    Format.fprintf ppf "spans:@.";
    Format.fprintf ppf "  %-*s %8s %12s %12s@." width "" "calls" "total(ms)"
      "max(ms)";
    List.iter
      (fun (name, sp) ->
        Format.fprintf ppf "  %-*s %8d %12.3f %12.3f@." width name
          sp.Stats.calls
          (1e3 *. sp.Stats.total_s)
          (1e3 *. sp.Stats.max_s))
      s.Stats.spans
  end

let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string (json_of_snapshot s));
      output_char oc '\n')

let emit ?(ppf = Format.std_formatter) ?(human = false) ?json_file () =
  let s = Stats.snapshot () in
  if human then Format.fprintf ppf "%a" pp_human s;
  match json_file with
  | Some path -> (
    (* stats output must not turn a successful run into a crash *)
    match write_file path s with
    | () -> Format.fprintf ppf "stats: JSON snapshot written to %s@." path
    | exception Sys_error msg ->
      Format.eprintf "stats: cannot write JSON snapshot: %s@." msg)
  | None -> ()
