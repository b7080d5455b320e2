(* The cold/warm-bound cache projection of a sampling plan, priced with
   two fresh grids per representative: each bound feeds its warmup
   through a new grid, snapshots the misses, feeds the window and
   subtracts.  The grids are built here from the cache models, not from
   [Study]'s grid, so the walk under test shares none of this code; the
   simulated grid is the reference model [Cache_ref]. *)

module Stack_dist = Pc_caches.Stack_dist
module Study = Pc_caches.Study
module Sample = Pc_sample.Sample

(* Misses per study configuration over [measure], after a [warmup] that
   primes a fresh grid and is not counted. *)
let measured_misses ~onepass ~warmup measure =
  if onepass then begin
    let prof = Stack_dist.create Study.configs in
    let emit = Stack_dist.access prof in
    warmup emit;
    let warm = Stack_dist.misses prof in
    measure emit;
    Array.map2 ( - ) (Stack_dist.misses prof) warm
  end
  else begin
    let caches = Array.map Cache_ref.create Study.configs in
    let emit addr = Array.iter (fun c -> ignore (Cache_ref.access c addr)) caches in
    warmup emit;
    let warm = Array.map Cache_ref.misses caches in
    measure emit;
    Array.map2 ( - ) (Array.map Cache_ref.misses caches) warm
  end

let feed_addrs trace ~from ~until emit =
  for i = from to until - 1 do
    let addr = Sample.packed_mem_addr trace.(i) in
    if addr >= 0 then emit addr
  done

let project_mpi ?(onepass = false) (plan : Sample.plan) =
  let proj = Array.make (Array.length Study.configs) 0.0 in
  Array.iter
    (fun (rep : Sample.rep) ->
      let trace = rep.Sample.trace and warmup = rep.Sample.warmup in
      let prefix emit = feed_addrs trace ~from:0 ~until:warmup emit in
      let window emit = feed_addrs trace ~from:warmup ~until:(Array.length trace) emit in
      let cold = measured_misses ~onepass ~warmup:prefix window in
      let warm =
        measured_misses ~onepass
          ~warmup:(fun emit ->
            prefix emit;
            window emit)
          window
      in
      let ratio =
        float_of_int rep.Sample.weight /. float_of_int (max 1 rep.Sample.window)
      in
      Array.iteri
        (fun i c ->
          let est = 0.5 *. float_of_int (c + warm.(i)) in
          proj.(i) <- proj.(i) +. (est *. ratio))
        cold)
    plan.Sample.reps;
  Array.map (fun m -> m /. float_of_int plan.Sample.total_instrs) proj
