(* check_baselines: CI regression gate over archived artefacts.

   Usage:
     check_baselines BASELINE CURRENT [BASELINE CURRENT]...

   The gate kind comes from each baseline's schema: a pc-obs/1 baseline
   compares counters and gauges exactly; a pc-bounds/1 document bounds
   the numbers in an artefact of the schema it names (clone fidelity,
   scenario co-runs, tuning).  Prints a one-line-per-gate summary table
   and the discrepancies of every failing gate.  Exits 0 when every
   gate passes, 1 when any fails, 2 on an unparsable or malformed
   input.  Baselines are regenerated deliberately — see
   EXPERIMENTS.md. *)

module Json = Pc_util.Json
module Bounds = Pc_report.Bounds

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("check_baselines: " ^ msg);
      exit 2)
    fmt

let load path =
  match Json.parse_file path with
  | Ok doc -> doc
  | Error msg -> fail "%s: %s" path msg

(* The gate column is the artefact's schema without its "pc-" prefix
   and version: pc-fidelity/1 gates under "fidelity". *)
let gate_name artifact =
  let base =
    match String.index_opt artifact '/' with
    | Some i -> String.sub artifact 0 i
    | None -> artifact
  in
  if String.starts_with ~prefix:"pc-" base then
    String.sub base 3 (String.length base - 3)
  else base

let gate path baseline =
  match Json.schema baseline with
  | Some "pc-obs/1" ->
    ("metrics", fun current -> Pc_obs.Baseline.check_metrics ~baseline ~current)
  | Some "pc-bounds/1" -> (
    match Bounds.of_json baseline with
    | Ok b -> (gate_name (Bounds.artifact b), Bounds.check b)
    | Error msg -> fail "%s: %s" path msg)
  | Some s -> fail "%s: no gate for schema %s" path s
  | None -> fail "%s: no schema field" path

let rec pairs = function
  | [] -> []
  | [ odd ] -> fail "needs BASELINE CURRENT pairs (odd file %s)" odd
  | b :: c :: rest -> (b, c) :: pairs rest

let main files =
  let rows =
    List.map
      (fun (baseline_path, current_path) ->
        let name, check = gate baseline_path (load baseline_path) in
        (name, current_path, check (load current_path)))
      (pairs files)
  in
  Printf.printf "  %-10s %-36s %-6s %s\n" "gate" "current" "status" "issues";
  List.iter
    (fun (name, current_path, issues) ->
      Printf.printf "  %-10s %-36s %-6s %d%s\n" name current_path
        (if issues = [] then "ok" else "FAIL")
        (List.length issues)
        (match issues with [] -> "" | worst :: _ -> "  " ^ worst))
    rows;
  let failed = List.filter (fun (_, _, issues) -> issues <> []) rows in
  match failed with
  | [] ->
    Printf.printf "check_baselines: all %d gates ok\n" (List.length rows);
    0
  | failed ->
    List.iter
      (fun (name, _, issues) ->
        List.iter (fun i -> Printf.printf "check_baselines: %s: %s\n" name i) issues)
      failed;
    Printf.printf "check_baselines: %d of %d gates failed\n"
      (List.length failed) (List.length rows);
    1

open Cmdliner

let files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"BASELINE CURRENT"
        ~doc:"Pairs of a checked-in baseline and the artefact this run \
              produced.  A $(b,pc-obs/1) baseline compares counters and \
              gauges exactly; a $(b,pc-bounds/1) document bounds the \
              numbers in the artefact schema it names.")

let cmd =
  Cmd.v
    (Cmd.info "check_baselines" ~doc:"gate CI artefacts against baselines")
    Term.(const main $ files_arg)

let () = exit (Cmd.eval' cmd)
