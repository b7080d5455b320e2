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

type source =
  | From_machine of Machine.t
  | From_trace of {
      statics : Machine.statics;
      trace : int array;
      marks : int array;
    }

type tenant_input = { label : string; budget : int; source : source }

type tenant_result = {
  label : string;
  result : Sim.result;
  fed : int;
  mark_cycles : int array;
}

type src_state =
  | S_machine of Machine.t * Machine.statics
  | S_trace of {
      statics : Machine.statics;
      trace : int array;
      marks : int array;
      mutable pos : int;
      mutable mark_idx : int;
    }

type tstate = {
  t_label : string;
  sim : Sim.state;
  src : src_state;
  t_mark_cycles : int array;
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
        let src, marks =
          match inp.source with
          | From_machine m -> (S_machine (m, Machine.statics m), [||])
          | From_trace { statics; trace; marks } ->
            ( S_trace
                { statics; trace; marks = Array.copy marks; pos = 0; mark_idx = 0 },
              Array.make (Array.length marks) 0 )
        in
        {
          t_label = inp.label;
          sim;
          src;
          t_mark_cycles = marks;
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
    | S_trace s ->
      let record_marks () =
        while
          s.mark_idx < Array.length s.marks && s.marks.(s.mark_idx) = s.pos
        do
          t.t_mark_cycles.(s.mark_idx) <- Sim.committed_cycle t.sim;
          s.mark_idx <- s.mark_idx + 1
        done
      in
      let total = Array.length s.trace in
      let goal = min (s.pos + quota) total in
      let ran = ref 0 in
      record_marks ();
      while s.pos < goal do
        (* stop at the next mark inside this quota so the commit clock
           is read exactly at the window boundary *)
        let stop =
          if s.mark_idx < Array.length s.marks then
            min goal s.marks.(s.mark_idx)
          else goal
        in
        let len = stop - s.pos in
        Sample.feed_trace t.sim s.statics s.trace ~pos:s.pos ~len;
        s.pos <- stop;
        ran := !ran + len;
        record_marks ()
      done;
      if s.pos >= total then t.active <- false;
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
      let result = Sim.finish t.sim in
      {
        label = t.t_label;
        result;
        fed = result.Sim.instrs;
        mark_cycles = t.t_mark_cycles;
      })
    tenants
