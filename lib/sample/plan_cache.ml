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

let structural v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let memo : (string, Sample.plan) Pc_exec.Store.t =
  Pc_exec.Store.create ~name:"sample.plan" ()

let plan ?dir ~seed ~interval ~max_instrs program =
  Pc_exec.Store.find_or_compute memo
    (structural (program, max_instrs, interval, seed))
    (fun () ->
      let compute () = Sample.plan ~seed ~interval ~max_instrs program in
      match dir with
      | None -> compute ()
      | Some dir ->
        find_or_compute (create dir)
          (key ~profile_id:(structural (program, max_instrs)) ~interval ~seed)
          compute)

let clear_memo () = Pc_exec.Store.clear memo
