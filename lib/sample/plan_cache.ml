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

(* Each program's digest, computed once per program value: marshalling a
   large program costs milliseconds, and every memo lookup names one.
   Programs are held weakly and compared physically. *)
module Digests = Ephemeron.K1.Make (struct
  type t = Pc_isa.Program.t
  let equal = ( == )
  let hash = Hashtbl.hash
end)

let digests = Digests.create 64
let lock = Mutex.create ()

let program_digest program =
  match Mutex.protect lock (fun () -> Digests.find_opt digests program) with
  | Some d -> d
  | None ->
    let d = structural program in
    Mutex.protect lock (fun () -> Digests.replace digests program d);
    d

let memo : (string, Sample.plan) Pc_exec.Store.t =
  Pc_exec.Store.create ~name:"sample.plan" ()

let plan ?dir ~seed ~interval ~max_instrs program =
  Pc_exec.Store.find_or_compute memo
    (structural (program_digest program, max_instrs, interval, seed))
    (fun () ->
      let compute () = Sample.plan ~seed ~interval ~max_instrs program in
      match dir with
      | None -> compute ()
      | Some dir ->
        find_or_compute (create dir)
          (key ~profile_id:(structural (program, max_instrs)) ~interval ~seed)
          compute)

let clear_memo () = Pc_exec.Store.clear memo
