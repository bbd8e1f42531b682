let write_or_warn ~what path text =
  match
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc text)
  with
  | () -> true
  | exception Sys_error msg ->
    Format.eprintf "warning: cannot write %s: %s@." what msg;
    false
