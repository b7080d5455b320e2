include Pc_exec.Disk_store.Make (struct
  type value = Fitness.eval

  (* Bump whenever {!Fitness.eval}'s layout (or anything reachable from
     it) changes. *)
  let magic = "pc-tune-eval/2"
  let suffix = ".eval"
  let dir_name = "pc-tune"
  let max_entries = 512
  let counters = "tune.store"
end)

let key ~profile_id ~knobs_id ~mode_id ~seed ~profile_instrs ~target_dynamic ()
    =
  digest (profile_id, knobs_id, mode_id, seed, profile_instrs, target_dynamic)
