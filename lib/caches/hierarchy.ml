type config = {
  l1 : Cache.config;
  l1_latency : int;
  l2 : Cache.config option;
  l2_latency : int;
  mem_latency : int;
}

type t = {
  cfg : config;
  l1 : Cache.t;
  l2 : Cache.t option;
  tag : int;  (* OR-ed into every address; disambiguates tenants in a shared L2 *)
  mutable l2_access_count : int;
  mutable l2_miss_count : int;
  mutable mem_accesses : int;
}

let create cfg =
  {
    cfg;
    l1 = Cache.create cfg.l1;
    l2 = Option.map Cache.create cfg.l2;
    tag = 0;
    l2_access_count = 0;
    l2_miss_count = 0;
    mem_accesses = 0;
  }

let create_shared ?(tag = 0) ~l2 (cfg : config) =
  (match (cfg.l2, l2) with
  | Some _, None | None, Some _ ->
    invalid_arg
      "Hierarchy.create_shared: shared L2 presence must match the config's"
  | Some _, Some _ | None, None -> ());
  if tag < 0 then invalid_arg "Hierarchy.create_shared: negative tag";
  {
    cfg;
    l1 = Cache.create cfg.l1;
    l2;
    tag;
    l2_access_count = 0;
    l2_miss_count = 0;
    mem_accesses = 0;
  }

let access t addr =
  let addr = addr lor t.tag in
  if Cache.access t.l1 addr then t.cfg.l1_latency
  else
    match t.l2 with
    | Some l2 ->
      t.l2_access_count <- t.l2_access_count + 1;
      if Cache.access l2 addr then t.cfg.l1_latency + t.cfg.l2_latency
      else begin
        t.l2_miss_count <- t.l2_miss_count + 1;
        t.mem_accesses <- t.mem_accesses + 1;
        t.cfg.l1_latency + t.cfg.l2_latency + t.cfg.mem_latency
      end
    | None ->
      t.mem_accesses <- t.mem_accesses + 1;
      t.cfg.l1_latency + t.cfg.mem_latency

let l1_accesses t = Cache.accesses t.l1
let l1_misses t = Cache.misses t.l1
let l2_accesses t = t.l2_access_count
let l2_misses t = t.l2_miss_count
let mem_accesses t = t.mem_accesses
