(* pc_diff: schema-aware drift diffing between two runs.

   Usage:
     pc_diff A.json B.json            diff two same-schema artefacts
     pc_diff --ledger[=DIR]           diff the ledger's newest record with
                                      the latest earlier run of the same
                                      tool and args digest
     pc_diff ... --gate thresholds.json --json report.json

   A and B may be any pc-*/1 artefact (pc-obs/1, pc-sample/1,
   pc-fidelity/1, pc-scenario/1, pc-trace/1, pc-tune/1) or two
   pc-run/1 ledger records —
   for records, the diff also recurses into every artefact both runs
   recorded (paired by schema) that still exists on disk, folding the
   results in under artifacts[<schema>]/ paths.

   Exit codes: 0 no drift beyond the gate, 1 drift, 2 usage/parse
   error or no ledger record to pair with.  The console table goes to
   stdout; --json writes the pc-diff/1 document. *)

module Json = Pc_util.Json
module Diff = Pc_report.Diff
module Ledger = Pc_report.Ledger

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("pc_diff: " ^ msg);
      exit 2)
    fmt

let load path =
  match Json.parse_file path with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

(* Fold a recursed artefact diff into the run-record report, prefixing
   every path with its artefact slot. *)
let merge (top : Diff.report) (subs : (string * Diff.report) list) =
  let prefixed =
    List.concat_map
      (fun (schema, (r : Diff.report)) ->
        List.map
          (fun (it : Diff.item) ->
            { it with Diff.path = Printf.sprintf "artifacts[%s]/%s" schema it.Diff.path })
          r.Diff.items)
      subs
  in
  {
    top with
    Diff.compared =
      List.fold_left
        (fun acc (_, (r : Diff.report)) -> acc + r.Diff.compared)
        top.Diff.compared subs;
    items = top.Diff.items @ prefixed;
  }

let main paths ledger gate_file json_out =
  let a, b =
    match (paths, ledger) with
    | [ a; b ], _ -> (a, b)
    | [], Some dir -> (
      match Ledger.latest_pair (Ledger.create dir) with
      | Ok pair -> pair
      | Error e -> die "%s" e)
    | [], None -> die "need two files (or --ledger); see --help"
    | _ -> die "expected exactly two files"
  in
  let thresholds =
    match gate_file with
    | None -> Diff.default_thresholds
    | Some path -> (
      match Diff.thresholds_of_json (load path) with
      | Ok th -> th
      | Error e -> die "%s: %s" path e)
  in
  let ja = load a and jb = load b in
  let report =
    match Diff.diff ~a_label:a ~b_label:b ja jb with
    | Error e -> die "%s" e
    | Ok top when top.Diff.artifact_schema = "pc-run/1" ->
      let subs =
        List.filter_map
          (fun (schema, pa, pb) ->
            if Sys.file_exists pa && Sys.file_exists pb then
              match Diff.diff_files pa pb with
              | Ok r -> Some (schema, r)
              | Error e ->
                Printf.eprintf "pc_diff: %s (skipping %s)\n" e schema;
                None
            else None)
          (Diff.run_artifact_pairs ja jb)
      in
      merge top subs
    | Ok top -> top
  in
  let report = Diff.apply thresholds report in
  Diff.pp Format.std_formatter report;
  Option.iter (fun path -> Diff.write_json path report) json_out;
  let n_drift = List.length (Diff.drift report) in
  if n_drift > thresholds.Diff.max_drift then begin
    Format.printf "pc_diff: DRIFT (%d item(s), gate allows %d)@." n_drift
      thresholds.Diff.max_drift;
    exit 1
  end
  else Format.printf "pc_diff: ok@."

open Cmdliner

let paths_arg =
  let doc = "The two same-schema artefacts (or pc-run/1 records) to diff." in
  Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)

let ledger_arg =
  let doc =
    "Diff the newest record of the run ledger under $(docv) with the \
     latest earlier record of the same tool and args digest, instead of \
     two explicit files; exits 2 when there is no such record.  Without a \
     value, defaults to \\$XDG_CACHE_HOME/pc-ledger (or \
     ~/.cache/pc-ledger)."
  in
  Arg.(
    value & opt ~vopt:(Some "") (some string) None
    & info [ "ledger" ] ~docv:"DIR" ~doc)

let gate_arg =
  let doc =
    "Gate the diff against a $(b,pc-diff-thresholds/1) JSON file: drift \
     matching its $(b,ignore) globs is tolerated, $(b,tolerances) \
     override per-schema numeric defaults, and the exit code allows up \
     to $(b,max_drift) remaining items."
  in
  Arg.(value & opt (some string) None & info [ "gate" ] ~docv:"FILE" ~doc)

let json_arg =
  let doc = "Write the $(b,pc-diff/1) JSON document to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "diff two runs' artefacts, schema-aware" in
  Cmd.v
    (Cmd.info "pc_diff" ~doc)
    Term.(const main $ paths_arg $ ledger_arg $ gate_arg $ json_arg)

let () = exit (Cmd.eval cmd)
