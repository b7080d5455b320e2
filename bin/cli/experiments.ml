open Cmdliner
module E = Perfclone.Experiments

let benches =
  let doc = "Restrict to the named benchmark (repeatable)." in
  Arg.(value & opt_all Common.bench [] & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let settings =
  let make quick benches seed =
    let base = if quick then E.quick_settings else E.default_settings in
    {
      base with
      E.seed;
      benchmarks = (if benches = [] then base.E.benchmarks else benches);
    }
  in
  Term.(const make $ Common.quick $ benches $ Common.seed)

let names =
  [
    "table1"; "table2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "table3";
    "fig8"; "fig9"; "ablation"; "statsim"; "portable"; "bpred"; "seeds"; "all";
  ]

let experiments =
  let doc =
    "Experiments to run: " ^ String.concat ", " names ^ " (default: all)."
  in
  Arg.(
    value
    & pos_all (enum (List.map (fun n -> (n, n)) names)) []
    & info [] ~docv:"EXPERIMENT" ~doc)
