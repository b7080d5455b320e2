module Cache = Pc_caches.Cache

(* The interference demonstration geometry: the embedded kernels fit
   their data in the base 16 KB L1-D, so a tight scenario shrinks the
   L1-D until data traffic reaches the L2 and shares an L2 small enough
   that two tenants' resident sets visibly evict each other.  The
   standalone baselines use the same geometry, so the slowdown it
   produces is pure co-run interference. *)
let tight_l1d = Cache.config ~size_bytes:512 ~assoc:2 ~line_bytes:32
let tight_l2 = Cache.config ~size_bytes:(2 * 1024) ~assoc:4 ~line_bytes:64

let all =
  [
    Spec.v ~name:"duet" [ Spec.tenant "crc32"; Spec.tenant "qsort" ];
    Spec.v ~name:"duet-clone"
      [ Spec.tenant ~kind:Spec.Clone "crc32"; Spec.tenant ~kind:Spec.Clone "qsort" ];
    Spec.v ~name:"duet-tight" ~shared_l2:tight_l2 ~l1d:tight_l1d
      [ Spec.tenant "qsort"; Spec.tenant "dijkstra" ];
    Spec.v ~name:"duet-tight-clone" ~shared_l2:tight_l2 ~l1d:tight_l1d
      [ Spec.tenant ~kind:Spec.Clone "qsort"; Spec.tenant ~kind:Spec.Clone "dijkstra" ];
    Spec.v ~name:"priority-duet" ~policy:(Spec.Priority [ 3; 1 ])
      [ Spec.tenant "crc32"; Spec.tenant "qsort" ];
    Spec.v ~name:"quad"
      [
        Spec.tenant "crc32";
        Spec.tenant "qsort";
        Spec.tenant "sha";
        Spec.tenant "dijkstra";
      ];
    Spec.v ~name:"quad-clone"
      [
        Spec.tenant ~kind:Spec.Clone "crc32";
        Spec.tenant ~kind:Spec.Clone "qsort";
        Spec.tenant ~kind:Spec.Clone "sha";
        Spec.tenant ~kind:Spec.Clone "dijkstra";
      ];
  ]

let names = List.map (fun (s : Spec.t) -> s.Spec.name) all

let find name = List.find_opt (fun (s : Spec.t) -> s.Spec.name = name) all
