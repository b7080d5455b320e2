module Machine = Pc_funcsim.Machine
module Cache = Pc_caches.Cache
module Hierarchy = Pc_caches.Hierarchy
module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim
module Sample = Pc_sample.Sample

(* Tenant tags sit above every address the machine can generate: data
   addresses stay below the funcsim stack base (< 2^23) and instruction
   fetches are [4 * pc] with pc below the packed-trace limit (2^22), so
   bit 26 onward is free.  A constant high-bit tag changes neither the
   L1 set index nor its hit pattern; it only keeps tenants' lines
   distinct in the shared L2. *)
let tag_shift = 26

type source = From_machine of Machine.t | From_plan of Sample.plan
type tenant_input = { label : string; budget : int; source : source }

type tenant_result = {
  label : string;
  result : Sim.result;
  windows : Sample.window array;
}

type src_state =
  | S_machine of Machine.t * Machine.statics
  | S_plan of Sample.Walk.t

type tstate = {
  t_label : string;
  sim : Sim.state;
  src : src_state;
  mutable remaining : int;
  mutable active : bool;
}

let co_run ?(quantum = Machine.batch_capacity) ?weights (cfg : Config.t)
    inputs =
  if quantum < 1 then invalid_arg "Scenario.co_run: quantum must be positive";
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Scenario.co_run: no tenants";
  let weights =
    match weights with
    | None -> Array.make n 1
    | Some ws ->
      if Array.length ws <> n then
        invalid_arg "Scenario.co_run: one weight per tenant";
      if Array.exists (fun w -> w < 1) ws then
        invalid_arg "Scenario.co_run: weights must be positive";
      ws
  in
  (* One shared L2 instance per cache side: the standalone base config
     gives the I- and D-hierarchies private L2s, so a faithful
     multi-tenant extension shares each side's L2 across tenants rather
     than unifying the sides (a 1-tenant scenario then degenerates to
     exactly the standalone machine). *)
  let i_l2 = Option.map Cache.create cfg.Config.icache.Hierarchy.l2 in
  let d_l2 = Option.map Cache.create cfg.Config.dcache.Hierarchy.l2 in
  let tenants =
    Array.mapi
      (fun i (inp : tenant_input) ->
        let tag = i lsl tag_shift in
        let icache =
          Hierarchy.create_shared ~tag ~l2:i_l2 cfg.Config.icache
        in
        let dcache =
          Hierarchy.create_shared ~tag ~l2:d_l2 cfg.Config.dcache
        in
        let sim = Sim.create ~icache ~dcache cfg in
        let src =
          match inp.source with
          | From_machine m -> S_machine (m, Machine.statics m)
          | From_plan plan -> S_plan (Sample.Walk.create plan)
        in
        {
          t_label = inp.label;
          sim;
          src;
          remaining = max 0 inp.budget;
          active = max 0 inp.budget > 0;
        })
      inputs
  in
  let feed_quota (t : tstate) quota =
    match t.src with
    | S_machine (m, statics) ->
      let ran =
        Machine.run_batched ~max_instrs:quota m (Sim.feed_batch t.sim statics)
      in
      if Machine.halted m then t.active <- false;
      ran
    | S_plan walk ->
      let ran = ref 0 in
      while !ran < quota && not (Sample.Walk.finished walk) do
        ran := !ran + Sample.Walk.step walk t.sim ~quota:(quota - !ran)
      done;
      if Sample.Walk.finished walk then t.active <- false;
      !ran
  in
  let active = ref 0 in
  Array.iter (fun t -> if t.active then incr active) tenants;
  while !active > 0 do
    for i = 0 to n - 1 do
      let t = tenants.(i) in
      if t.active then begin
        let quota = min (quantum * weights.(i)) t.remaining in
        let ran = feed_quota t quota in
        t.remaining <- t.remaining - ran;
        if t.remaining = 0 then t.active <- false;
        if not t.active then decr active
      end
    done
  done;
  Array.map
    (fun t ->
      let windows =
        match t.src with
        | S_machine _ -> [||]
        | S_plan walk -> Sample.Walk.windows walk
      in
      { label = t.t_label; result = Sim.finish t.sim; windows })
    tenants
