open Cmdliner
module Fitness = Pc_tune.Fitness

let stress =
  let doc =
    "Tune toward a performance envelope instead of the original: \
     $(docv) is a comma list of ipc=N, mpki=N, power=N targets (stress \
     clones).  In $(b,clone_gen) it implies $(b,--tune)."
  in
  let envelope =
    let parse s = Result.map_error (fun m -> `Msg m) (Fitness.envelope_of_string s) in
    let print ppf (e : Fitness.envelope) =
      let axis name = Option.map (Printf.sprintf "%s=%g" name) in
      Format.pp_print_string ppf
        (String.concat ","
           (List.filter_map Fun.id
              [
                axis "ipc" e.Fitness.e_ipc;
                axis "mpki" e.Fitness.e_mpki;
                axis "power" e.Fitness.e_power;
              ]))
    in
    Arg.conv (parse, print)
  in
  Arg.(value & opt (some envelope) None & info [ "stress" ] ~docv:"SPEC" ~doc)

let mode = function
  | None -> Fitness.Mimic Fitness.default_weights
  | Some env -> Fitness.Stress env

let store name =
  let doc =
    "Memoise tuning evaluations on disk under $(docv) (default \
     \\$XDG_CACHE_HOME/pc-tune), so repeated tuning runs converge from \
     cache."
  in
  let dir = function "" -> Pc_tune.Tune_store.default_dir () | dir -> dir in
  let arg =
    Arg.(value & opt ~vopt:(Some "") (some string) None & info [ name ] ~docv:"DIR" ~doc)
  in
  Term.(const (Option.map dir) $ arg)
