module M = Pc_obs.Metrics

let log_src = Logs.Src.create "pc.disk_store" ~doc:"On-disk memo stores"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_dir name =
  let base =
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> d
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat h ".cache"
      | _ -> Filename.get_temp_dir_name ())
  in
  Filename.concat base name

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_atomic file contents =
  (* The domain id joins the pid in the temp name because pool workers
     of one process may write different files concurrently. *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ()) (Domain.self () :> int)
  in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc contents;
        flush oc);
    Sys.rename tmp file
  with exn ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn

module type SPEC = sig
  type value

  val magic : string
  val suffix : string
  val dir_name : string
  val max_entries : int
  val counters : string
end

module type S = sig
  type value
  type t

  val default_dir : unit -> string
  val create : ?max_entries:int -> string -> t
  val find : t -> string -> value option
  val store : t -> string -> value -> unit
  val find_or_compute : t -> string -> (unit -> value) -> value
end

module Make (V : SPEC) = struct
  type value = V.value
  type t = { dir : string; max_entries : int }

  let c_hits = M.counter (V.counters ^ ".hits")
  let c_misses = M.counter (V.counters ^ ".misses")
  let c_evictions = M.counter (V.counters ^ ".evictions")

  let default_dir () = default_dir V.dir_name

  let create ?(max_entries = V.max_entries) dir =
    if max_entries <= 0 then
      invalid_arg "Pc_exec.Disk_store.create: max_entries must be positive";
    mkdir_p dir;
    { dir; max_entries }

  let digest k = Digest.to_hex (Digest.string (Marshal.to_string (V.magic, k) []))
  let path t key = Filename.concat t.dir (key ^ V.suffix)

  (* An entry is the magic line, the hex MD5 of the payload and a
     newline, then the marshalled payload.  [Marshal.from_string] trusts
     its input, so nothing reaches it before the digest matches. *)
  let header = V.magic ^ "\n"
  let payload_at = String.length header + 33

  let encode v =
    let payload = Marshal.to_string v [] in
    String.concat "" [ header; Digest.to_hex (Digest.string payload); "\n"; payload ]

  let decode s : value =
    let n = String.length s in
    if n < payload_at || String.sub s 0 (String.length header) <> header then
      failwith "bad magic";
    let sum = Digest.to_hex (Digest.substring s payload_at (n - payload_at)) in
    if String.sub s (String.length header) 33 <> sum ^ "\n" then
      failwith "payload digest mismatch";
    Marshal.from_string s payload_at

  (* Damaged or foreign files (truncated writes, flipped bits, another
     format) are never fatal: drop the file, warn, and report a miss so
     the caller recomputes. *)
  let find t key =
    let file = path t key in
    if not (Sys.file_exists file) then begin
      M.incr c_misses;
      None
    end
    else
      match decode (In_channel.with_open_bin file In_channel.input_all) with
      | v ->
        M.incr c_hits;
        Some v
      | exception exn ->
        Log.warn (fun m ->
            m "dropping corrupt %s entry %s (%s); recomputing" V.magic file
              (Printexc.to_string exn));
        (try Sys.remove file with Sys_error _ -> ());
        M.incr c_misses;
        None

  let entries t =
    match Sys.readdir t.dir with
    | exception Sys_error _ -> []
    | files ->
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f V.suffix)
      |> List.map (Filename.concat t.dir)

  (* Keep the newest [max_entries] files by mtime, ties broken by name. *)
  let evict t =
    let files = entries t in
    let drop = List.length files - t.max_entries in
    if drop > 0 then
      List.filter_map
        (fun f ->
          try Some ((Unix.stat f).Unix.st_mtime, f) with Unix.Unix_error _ -> None)
        files
      |> List.sort compare
      |> List.iteri (fun i (_, f) ->
             if i < drop then begin
               (try Sys.remove f with Sys_error _ -> ());
               M.incr c_evictions;
               Log.info (fun m -> m "evicted %s entry %s" V.magic f)
             end)

  let store t key v =
    let file = path t key in
    (try write_atomic file (encode v)
     with exn ->
       Log.warn (fun m ->
           m "failed to persist %s entry %s (%s)" V.magic file
             (Printexc.to_string exn)));
    evict t

  let find_or_compute t key f =
    match find t key with
    | Some v -> v
    | None ->
      let v = f () in
      store t key v;
      v
end
