module Json = Pc_util.Json

type t = { dir : string }
type artifact = { schema : string; path : string }

let default_dir () = Pc_exec.Disk_store.default_dir "pc-ledger"

let create dir =
  let dir = if dir = "" then default_dir () else dir in
  Pc_exec.Disk_store.mkdir_p dir;
  { dir }

let dir t = t.dir

(* --- argv normalisation --- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Drop parallelism and ledger flags: neither changes what the run
   computes, and keeping them would give -j1 and -j4 runs of the same
   experiment different digests.  [--ledger]'s optional value is always
   glued ([--ledger=DIR]), so the bare form never consumes a token.

   Output-destination values are elided the same way (the flag is kept,
   its path is not): where an artefact lands does not change what the
   run computes, and two otherwise-identical runs writing to different
   temp files should digest alike. *)
let out_opts =
  [
    "-o"; "--out"; "--output"; "--trace"; "--metrics-out"; "--sample-out";
    "--fidelity-out"; "--plan-cache";
  ]

let rec normalise = function
  | [] -> []
  | ("-j" | "--jobs") :: rest -> (
    match rest with _ :: tl -> normalise tl | [] -> [])
  | "--ledger" :: rest -> normalise rest
  | arg :: rest
    when starts_with ~prefix:"--jobs=" arg
         || starts_with ~prefix:"--ledger=" arg
         || (starts_with ~prefix:"-j" arg && String.length arg > 2) ->
    normalise rest
  | arg :: rest when List.mem arg out_opts -> (
    (* [--plan-cache]'s optional value is glued like [--ledger]'s, so
       the bare flag keeps the token after it. *)
    match rest with
    | _ :: tl when arg <> "--plan-cache" -> arg :: normalise tl
    | _ -> arg :: normalise rest)
  | arg :: rest
    when List.exists (fun o -> starts_with ~prefix:(o ^ "=") arg) out_opts ->
    List.find (fun o -> starts_with ~prefix:(o ^ "=") arg) out_opts
    :: normalise rest
  | arg :: rest when starts_with ~prefix:"-o" arg && String.length arg > 2 ->
    "-o" :: normalise rest
  | arg :: rest -> arg :: normalise rest

let args_digest argv =
  Digest.to_hex (Digest.string (String.concat "\x00" (normalise argv)))

(* --- record rendering --- *)

let int_fields entries =
  Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) entries)

(* The digested slice ([full = false]): everything in it is
   deterministic for a given invocation.  Histograms are timing, so the
   snapshot contributes counters and gauges only; artifact paths and
   digests and [exec.store.*]/[report.ledger.*] counters are rendered
   only into the stored record, not the id — paths are destinations
   (like the elided output-option values), file digests absorb trace
   timestamps, memo-store miss counts can double on same-key races at
   -j > 1, and the ledger's own bookkeeping grows with every record
   appended by the process. *)
let run_json ~full ~tool ~args_digest:ad ~seed ~git
    ~(snap : Pc_obs.Metrics.snapshot) ~arts =
  let counters =
    if full then snap.Pc_obs.Metrics.counters
    else
      List.filter
        (fun (k, _) ->
          (not (starts_with ~prefix:"exec.store." k))
          && not (starts_with ~prefix:"report.ledger." k))
        snap.Pc_obs.Metrics.counters
  in
  let artifact (schema, path, dg) =
    Json.Obj
      (("schema", Json.Str schema)
      :: (if full then [ ("path", Json.Str path); ("digest", Json.Str dg) ]
          else []))
  in
  Json.Obj
    [
      ("tool", Json.Str tool);
      ("args_digest", Json.Str ad);
      ("seed", Json.int seed);
      ("git", Json.Str git);
      ( "metrics",
        Json.Obj
          [
            ("counters", int_fields counters);
            ("gauges", int_fields snap.Pc_obs.Metrics.gauges);
          ] );
      ("artifacts", Json.List (List.map artifact arts));
    ]

let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
    let line = try input_line ic with End_of_file | Sys_error _ -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ | (exception _) -> "unknown")

let digest_of path =
  match Digest.file path with
  | d -> Digest.to_hex d
  | exception Sys_error _ -> "absent"

(* --- the record files --- *)

let is_record f =
  starts_with ~prefix:"run-" f && Filename.check_suffix f ".json"

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | files ->
    let l = List.filter is_record (Array.to_list files) in
    List.map (Filename.concat t.dir) (List.sort compare l)

(* The (tool, args digest) a record was written for; [None] when the
   file is not a readable record. *)
let work_of path =
  match Json.parse_file path with
  | Error _ -> None
  | Ok doc -> (
    let field k =
      Option.bind (Json.member "run" doc) (fun run ->
          Option.bind (Json.member k run) Json.to_string)
    in
    match (field "tool", field "args_digest") with
    | Some tool, Some ad -> Some (tool, ad)
    | _ -> None)

let latest_pair t =
  match List.rev (entries t) with
  | [] -> Error (Printf.sprintf "ledger %s has no records" t.dir)
  | newest :: earlier -> (
    match work_of newest with
    | None -> Error (Printf.sprintf "%s: not a readable pc-run/1 record" newest)
    | Some ((tool, ad) as work) -> (
      match List.find_opt (fun p -> work_of p = Some work) earlier with
      | Some partner -> Ok (partner, newest)
      | None ->
        Error
          (Printf.sprintf
             "ledger %s: no earlier %s record with args digest %s to pair \
              with %s"
             t.dir tool ad (Filename.basename newest))))

let next_seq t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> 0
  | files ->
    Array.fold_left
      (fun acc f ->
        if is_record f && String.length f >= 10 then
          match int_of_string_opt (String.sub f 4 6) with
          | Some s -> max acc (s + 1)
          | None -> acc
        else acc)
      0 files

let c_records = lazy (Pc_obs.Metrics.counter "report.ledger.records")

let record t ~tool ~argv ~seed ~jobs ~artifacts =
  let snap = Pc_obs.Metrics.snapshot () in
  let git = git_describe () in
  let ad = args_digest argv in
  let arts =
    List.map
      (fun a -> (a.schema, a.path, digest_of a.path))
      (List.sort
         (fun a b -> compare (a.schema, a.path) (b.schema, b.path))
         artifacts)
  in
  let run ~full = run_json ~full ~tool ~args_digest:ad ~seed ~git ~snap ~arts in
  let id = Digest.to_hex (Digest.string (Json.encode (run ~full:false))) in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "pc-run/1");
        ("id", Json.Str id);
        ("run", run ~full:true);
        ( "env",
          Json.Obj
            [
              ("host", Json.Str (try Unix.gethostname () with _ -> "unknown"));
              ("time_unix_s", Json.fixed 6 (Unix.gettimeofday ()));
              ("jobs", Json.int jobs);
              ("argv", Json.List (List.map (fun a -> Json.Str a) argv));
            ] );
      ]
  in
  (* Sequence numbers order the history; a concurrent writer racing to
     the same number just pushes this record to the next free slot. *)
  let rec place seq =
    let file =
      Filename.concat t.dir
        (Printf.sprintf "run-%06d-%s.json" seq (String.sub id 0 12))
    in
    if Sys.file_exists file then place (seq + 1) else file
  in
  let file = place (next_seq t) in
  Pc_exec.Disk_store.write_atomic file (Json.encode doc ^ "\n");
  Pc_obs.Metrics.incr (Lazy.force c_records);
  file
