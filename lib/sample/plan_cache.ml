include Pc_exec.Disk_store.Make (struct
  type value = Sample.plan

  (* Bump whenever the serialised {!Sample.plan} layout (or the packed
     replay-trace encoding it contains) changes. *)
  let magic = "pc-plan/2"
  let suffix = ".plan"
  let dir_name = "pc-sample"
  let max_entries = 256
  let counters = "plan_cache"
end)

let key ~profile_id ~interval ~seed =
  digest (profile_id, interval, seed, Sample.bbv_dims, Sample.max_k, Sample.restarts)
