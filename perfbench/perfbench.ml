(* The repository benchmark: three seeded Prio workloads driven through the
   public API, with end-to-end metrics (untraced run) or per-layer metrics
   (traced run). See README.md in this directory for the metric table, the
   workload rationale and the layer -> end-to-end map.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--smoke] [--corrupt-aggregate]

   Human-readable lines go to stdout first ("metric", "layer", "noise",
   "info"); the last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}. A wrong verdict or a
   wrong aggregate makes the run exit 1; any other failure exits 2 without
   a JSON line. Every forked server is shut down and reaped on every path. *)

open Core
module F = Prio.F87
module P = Prio.Make (F)
module Rng = Prio.Rng
module Net = P.Net
module Tr = Prio.Transport
module Ckpt = P.Checkpoint
module Snap = Prio.Snapshot

(* Nanosecond monotonic clock: several layer calls take under a
   microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* CPU affinity of the calling thread as a bit mask (affinity_stubs.c). *)
external get_cpus : unit -> int = "perfbench_get_cpus"
external set_cpus : int -> unit = "perfbench_set_cpus"

(* Move the calling thread round the allowed CPUs from a thread of its own
   until [rotate_stop]. *)
external rotate_start : float -> unit = "perfbench_rotate_start"
external rotate_stop : unit -> unit = "perfbench_rotate_stop"

(* The vCPUs of a shared host run at different speeds that swap within
   minutes (a busy sibling hyperthread): a loop pinned to one ran about
   30 % slower than on the other. Code that must not measure the vCPU it
   happens to sit on moves between them every 20 ms, faster than one
   in-process submission takes. *)
let rotate_period = 0.02

(* ------------------------------------------------------------------ *)
(* Small utilities                                                      *)
(* ------------------------------------------------------------------ *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
  let concat bs = Array.concat (List.map to_array bs)
end

(* Linear-interpolated quantile, p in [0,1]; nan on no samples. *)
let quantile p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile 0.5 xs
let median_buf b = median (Fbuf.to_array b)

let timed buf f =
  let t0 = now () in
  let x = f () in
  Fbuf.push buf (now () -. t0);
  x

(* /proc files report length 0; read them line by line instead. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in_noerr ic;
        List.rev acc
    in
    go []

let words s =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s)
  |> List.filter (fun w -> w <> "")

(* "key: value ..." lines of /proc/<pid>/{status,io}. *)
let proc_field pid file key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = key -> (
        match words (String.sub l (i + 1) (String.length l - i - 1)) with
        | v :: _ -> float_of_string_opt v
        | [] -> None)
      | _ -> None)
    (read_lines (Printf.sprintf "/proc/%d/%s" pid file))
  |> Option.value ~default:0.

(* utime + stime of a process in seconds (USER_HZ is 100 on Linux). *)
let proc_cpu_s pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | l :: _ -> (
    (* the command name may hold spaces: fields restart after ")" *)
    let rest =
      match String.rindex_opt l ')' with
      | Some i -> String.sub l (i + 2) (String.length l - i - 2)
      | None -> l
    in
    match Array.of_list (words rest) with
    | f when Array.length f > 12 ->
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.
    | _ -> 0.)
  | [] -> 0.

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* ------------------------------------------------------------------ *)
(* Host noise diagnostics (recorded, never bounded)                      *)
(* ------------------------------------------------------------------ *)

type host = { steal : float; total : float; cpu_stall_us : float; io_stall_us : float }

let host_sample () =
  let steal, total =
    match read_lines "/proc/stat" with
    | l :: _ -> (
      match words l with
      | "cpu" :: fields ->
        let v = List.map float_of_string fields in
        let steal = match List.nth_opt v 7 with Some s -> s | None -> 0. in
        (steal, List.fold_left ( +. ) 0. v)
      | _ -> (0., 0.))
    | [] -> (0., 0.)
  in
  let stall file =
    List.find_map
      (fun l ->
        match words l with
        | "some" :: fields ->
          List.find_map
            (fun f ->
              if String.length f > 6 && String.sub f 0 6 = "total=" then
                float_of_string_opt (String.sub f 6 (String.length f - 6))
              else None)
            fields
        | _ -> None)
      (read_lines file)
    |> Option.value ~default:0.
  in
  { steal; total;
    cpu_stall_us = stall "/proc/pressure/cpu";
    io_stall_us = stall "/proc/pressure/io" }

(* A fixed field-arithmetic loop owned by the benchmark: its time moves
   with the host, never with the program under test. *)
let calibration_us () =
  let one () =
    let t0 = now () in
    let x = ref (F.of_int 3) in
    for _ = 1 to 20_000 do
      x := F.add (F.mul !x !x) F.one
    done;
    ignore (Sys.opaque_identity !x);
    (now () -. t0) *. 1e6
  in
  median (Array.init 7 (fun _ -> one ()))

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  num_servers : int;
  sessions : int;  (** client threads on a TCP deployment; 0 = in-process *)
  durable : bool;
  circuit : P.Afe.C.t;
  trunc_len : int;
  draw : Rng.t -> int -> int array * bool;
      (** the k-th input of a client stream and whether it is valid *)
  encode : Rng.t -> int array -> bool -> F.t array;
  reference_ok : honest:int array list -> accepted:int -> F.t array -> bool;
      (** decoded aggregate = [Afe.run_plain] over the honest inputs *)
}

let epoch_size = 2500

(* Run records, span dumps and per-run temporary files, inside the checkout. *)
let out_dir = ".bench_out"

let count_durable () =
  let afe = P.Afe_sum.sum ~bits:1 in
  {
    name = "count_durable";
    num_servers = 3;
    sessions = 2;
    durable = true;
    circuit = afe.P.Afe.circuit;
    trunc_len = afe.P.Afe.trunc_len;
    draw = (fun rng _ -> ([| Rng.int_below rng 2 |], true));
    encode = (fun rng v _ -> afe.P.Afe.encode ~rng v.(0));
    reference_ok =
      (fun ~honest ~accepted sigma ->
        let want =
          P.Afe.run_plain afe ~rng:(Rng.of_string_seed "reference")
            (List.map (fun v -> v.(0)) honest)
        in
        accepted = List.length honest
        && Prio.Bigint.equal want (afe.P.Afe.decode ~n:accepted sigma));
  }

let hist64_reject () =
  let buckets = 64 in
  let afe = P.Afe_histogram.histogram ~buckets in
  {
    name = "hist64_reject";
    num_servers = 5;
    sessions = 1;
    durable = false;
    circuit = afe.P.Afe.circuit;
    trunc_len = afe.P.Afe.trunc_len;
    (* every fifth client is malicious *)
    draw = (fun rng k -> ([| Rng.int_below rng buckets |], k mod 5 <> 4));
    encode =
      (fun rng v honest ->
        let e = afe.P.Afe.encode ~rng v.(0) in
        (* two-hot: every coordinate a bit, but they sum to two *)
        if not honest then e.((v.(0) + 1) mod buckets) <- F.one;
        e);
    reference_ok =
      (fun ~honest ~accepted sigma ->
        let want =
          P.Afe.run_plain afe ~rng:(Rng.of_string_seed "reference")
            (List.map (fun v -> v.(0)) honest)
        in
        accepted = List.length honest
        && want = afe.P.Afe.decode ~n:accepted sigma);
  }

let bits1024_cluster () =
  let l = 1024 in
  let b = P.Circuit.Builder.create ~num_inputs:l in
  for i = 0 to l - 1 do
    P.Circuit.Builder.assert_bit b (P.Circuit.Builder.input b i)
  done;
  let circuit, raw_circuit = P.Afe.compile (P.Circuit.Builder.build b) in
  let afe : (int array, int array) P.Afe.t =
    {
      P.Afe.name = "bits1024";
      encoding_len = l;
      trunc_len = l;
      circuit;
      raw_circuit;
      encode = (fun ~rng:_ v -> Array.map F.of_int v);
      decode = (fun ~n:_ sigma -> Array.map P.Afe.to_int_exn sigma);
      leakage = "per-coordinate counts";
    }
  in
  {
    name = "bits1024_cluster";
    num_servers = 5;
    sessions = 0;
    durable = false;
    circuit;
    trunc_len = l;
    draw = (fun rng _ -> (Array.init l (fun _ -> Rng.int_below rng 2), true));
    encode = (fun rng v _ -> afe.P.Afe.encode ~rng v);
    reference_ok =
      (fun ~honest ~accepted sigma ->
        let want =
          P.Afe.run_plain afe ~rng:(Rng.of_string_seed "reference") honest
        in
        accepted = List.length honest
        && want = afe.P.Afe.decode ~n:accepted sigma);
  }

let workloads =
  [ ("count_durable", count_durable); ("hist64_reject", hist64_reject);
    ("bits1024_cluster", bits1024_cluster) ]

(* ------------------------------------------------------------------ *)
(* Spans recorded around the calls into each layer                     *)
(* ------------------------------------------------------------------ *)

type span = { sub : int; sname : string; t0 : float; t1 : float }

(* One recorder per client thread, so recording takes no lock. *)
type recorder = { mutable spans : span list }

let with_span rec_opt ~sub name f =
  match rec_opt with
  | None -> f ()
  | Some r ->
    let t0 = now () in
    let x = f () in
    r.spans <- { sub; sname = name; t0; t1 = now () } :: r.spans;
    x

let write_spans path recorders =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun r ->
          List.iter
            (fun s ->
              Printf.fprintf oc
                "{\"submission\":%d,\"span\":%S,\"parent\":\"submission\",\"start_s\":%.6f,\"dur_us\":%.3f}\n"
                s.sub s.sname s.t0 ((s.t1 -. s.t0) *. 1e6))
            (List.rev r.spans))
        recorders)

(* ------------------------------------------------------------------ *)
(* Client pipeline: encode, prove, share, seal                          *)
(* ------------------------------------------------------------------ *)

let client_packets ?recorder w ~master ~rng ~client_id raw honest =
  let span name f = with_span recorder ~sub:client_id name f in
  let mode = P.Client.Robust_snip w.circuit in
  let enc = span "client.encode" (fun () -> w.encode rng raw honest) in
  let plain =
    span "client.prove" (fun () -> P.Client.plain_vector ~rng ~mode enc)
  in
  let shares =
    span "client.share" (fun () ->
        P.Client.Sh.split_compressed rng ~s:w.num_servers plain)
  in
  span "client.seal" (fun () -> P.Client.seal ~rng ~client_id ~master shares)

(* ------------------------------------------------------------------ *)
(* Ground truth and per-client stream state                             *)
(* ------------------------------------------------------------------ *)

type truth = {
  mutable attempted : int;
  mutable failed : int;
  mutable honest : int array list;  (** honest inputs that must be counted *)
}

let new_truth () = { attempted = 0; failed = 0; honest = [] }

let merge_truth into t =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  into.honest <- t.honest @ into.honest

(* Judge one verdict against ground truth; [true] when it was decided
   correctly (accepted honest, or rejected invalid). *)
let judge truth ~raw ~honest accepted_opt =
  truth.attempted <- truth.attempted + 1;
  (* an honest input is part of the reference whatever happened to it: a
     refused honest submission then also shows as a wrong aggregate *)
  if honest then truth.honest <- raw :: truth.honest;
  match accepted_opt with
  | Some accepted when accepted = honest -> true
  | _ ->
    truth.failed <- truth.failed + 1;
    false

(* A client stream: its own RNG (inputs are a function of the seed and
   the client's index) and its own ground truth, so client threads share
   nothing but the submission-id counter. *)
type client = { rng : Rng.t; mutable k : int; truth : truth }

let new_client seed_str i =
  { rng = Rng.of_string_seed (Printf.sprintf "%s/client%d" seed_str i); k = 0;
    truth = new_truth () }

let next_input w c =
  let raw, honest = w.draw c.rng c.k in
  c.k <- c.k + 1;
  (raw, honest)

(* One measured phase of one client. *)
type samples = {
  lat : Fbuf.t;  (** first upload frame to verdict, seconds *)
  cli : Fbuf.t;  (** value to sealed packets, seconds *)
  at : Fbuf.t;  (** when the verdict arrived *)
  good : Fbuf.t;  (** 1 when the verdict matched ground truth, else 0 *)
  mutable decided : int;  (** verdicts that match ground truth *)
  recorder : recorder option;
}

let new_samples traced =
  { lat = Fbuf.create (); cli = Fbuf.create (); at = Fbuf.create ();
    good = Fbuf.create (); decided = 0;
    recorder = (if traced then Some { spans = [] } else None) }

let record smp c ~raw ~honest ~t0 ~t1 ~t2 verdict =
  Fbuf.push smp.cli (t1 -. t0);
  Fbuf.push smp.lat (t2 -. t1);
  Fbuf.push smp.at t2;
  let ok = judge c.truth ~raw ~honest verdict in
  Fbuf.push smp.good (if ok then 1. else 0.);
  if ok then smp.decided <- smp.decided + 1

(* One window of a measured slice. *)
type window = {
  sps : float;  (** decided submissions per second *)
  p50 : float;
  p90 : float;
  cli_med : float;
  cpu_per : float;  (** server CPU seconds per decided submission *)
  steal : float;  (** host steal share of the window *)
}

(* Windows are about three seconds long: enough verdicts in each for a
   percentile, and enough windows in a run that a burst of host
   interference lands in few of them. *)
let window_s = 3.0
let n_windows seconds = max 1 (int_of_float (seconds /. window_s))

(* Split a slice into the windows [bounds.(w), bounds.(w+1)), with the
   cumulative server CPU seconds [cpu] read at each bound. Verdicts that
   arrive after the last bound (in flight at the end) join no window. *)
let windows_of ~bounds ~cpu ~(host : host array) ~at ~good ~lat ~cli =
  let nw = Array.length bounds - 1 in
  let lats = Array.make nw [] and clis = Array.make nw [] in
  let dec = Array.make nw 0 in
  Array.iteri
    (fun i t ->
      match List.find_opt (fun w -> t < bounds.(w + 1)) (List.init nw Fun.id) with
      | Some w when t >= bounds.(0) ->
        lats.(w) <- lat.(i) :: lats.(w);
        clis.(w) <- cli.(i) :: clis.(w);
        if good.(i) > 0. then dec.(w) <- dec.(w) + 1
      | _ -> ())
    at;
  List.init nw Fun.id
  |> List.filter (fun w -> dec.(w) > 0)
  |> List.map (fun w ->
         let l = Array.of_list lats.(w) in
         { sps = float_of_int dec.(w) /. (bounds.(w + 1) -. bounds.(w));
           p50 = median l; p90 = quantile 0.9 l;
           cli_med = median (Array.of_list clis.(w));
           cpu_per = (cpu.(w + 1) -. cpu.(w)) /. float_of_int dec.(w);
           steal =
             (host.(w + 1).steal -. host.(w).steal)
             /. Float.max 1. (host.(w + 1).total -. host.(w).total) })

type stream = {
  samples : int;  (** verdicts received *)
  decided : int;
  windows : window list;
  recorders : recorder list;
}

(* Slices of one kind (traced or not) measured apart, as one stream. *)
let concat_streams = function
  | [] -> invalid_arg "concat_streams"
  | s :: rest ->
    List.fold_left
      (fun a b ->
        { samples = a.samples + b.samples; decided = a.decided + b.decided;
          windows = a.windows @ b.windows; recorders = a.recorders @ b.recorders })
      s rest

let stream_of ~bounds ~cpu ~host smps =
  let cat f = Fbuf.concat (List.map f smps) in
  let lat = cat (fun (s : samples) -> s.lat) in
  {
    samples = Array.length lat;
    decided = List.fold_left (fun a (s : samples) -> a + s.decided) 0 smps;
    windows =
      windows_of ~bounds ~cpu ~host ~lat
        ~cli:(cat (fun (s : samples) -> s.cli))
        ~at:(cat (fun (s : samples) -> s.at))
        ~good:(cat (fun (s : samples) -> s.good));
    recorders = List.filter_map (fun (s : samples) -> s.recorder) smps;
  }

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

type results = {
  mutable e2e : (string * float * string) list;  (** reverse order *)
  mutable layers : (string * float * string) list;  (** reverse order *)
  mutable info : (string * string) list;  (** reverse order *)
}

let res = { e2e = []; layers = []; info = [] }
let e2e name v unit = res.e2e <- (name, v, unit) :: res.e2e
let layer name v unit = res.layers <- (name, v, unit) :: res.layers
let info k v = res.info <- (k, v) :: res.info

(* The quarter of the windows in which the hypervisor stole the least CPU
   time, with every window that ties the last of them. Steal only ever
   slows a window and no commit can cause it; on a shared 2-vCPU host it
   swings between under 1 % and 40 % within a run, and window throughput
   falls by up to half with it. Across runs with steal bursts, medians
   over this quarter spread about half as much as over the quiet half. *)
let quiet_windows s =
  let by_steal = List.stable_sort (fun a b -> Float.compare a.steal b.steal) s.windows in
  match List.nth_opt by_steal (max 0 (((List.length by_steal + 3) / 4) - 1)) with
  | None -> []
  | Some last -> List.filter (fun w -> w.steal <= last.steal) by_steal

let over_windows s f = median (Array.of_list (List.map f (quiet_windows s)))

(* The stream's latency_p50, in seconds. *)
let p50_of s = over_windows s (fun w -> w.p50)

(* Timings are medians over the stream's quiet windows, [client_ms] too
   unless it was timed apart; sizes are per decided submission over the
   whole stream. *)
let e2e_stream ?client_ms s ~upload_bytes ~server_bytes ~rss_mb =
  let dec = float_of_int (max 1 s.decided) in
  let over = over_windows s in
  e2e "throughput_sps" (over (fun w -> w.sps)) "1/s";
  e2e "latency_p50_ms" (1e3 *. p50_of s) "ms";
  e2e "latency_p90_ms" (1e3 *. over (fun w -> w.p90)) "ms";
  e2e "client_ms"
    (match client_ms with
    | Some ms -> ms
    | None -> 1e3 *. over (fun w -> w.cli_med))
    "ms";
  e2e "server_cpu_ms" (1e3 *. over (fun w -> w.cpu_per)) "ms";
  e2e "upload_bytes" upload_bytes "bytes";
  e2e "server_bytes" (server_bytes /. dec) "bytes";
  e2e "server_rss_mb" rss_mb "MB";
  info "stream_samples" (string_of_int s.samples);
  let each f =
    String.concat "," (List.map (fun w -> Printf.sprintf "%.4g" (f w)) s.windows)
  in
  info "window_sps" (each (fun w -> w.sps));
  info "window_p90_ms" (each (fun w -> 1e3 *. w.p90));
  info "window_steal" (each (fun w -> w.steal));
  info "window_p50_ms" (each (fun w -> 1e3 *. w.p50));
  info "stream_decided" (string_of_int s.decided)

(* ------------------------------------------------------------------ *)
(* Options                                                              *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** tiny repeat counts, for the self-test *)
  corrupt : bool;  (** corrupt the aggregate, for the self-test *)
}

(* Repeat counts that make medians steady at full size and keep the
   self-test fast at smoke size. *)
let n_setups o = if o.smoke then 1 else 10
let n_drill o = if o.smoke then 1 else 5
let warmup_s o = if o.smoke then 0.1 else 1.0
let replay_s o = if o.smoke then 0.2 else 3.0
let restore_reps o = if o.smoke then 3 else 21
let client_s o = if o.smoke then 0.1 else 8.0

(* Client time from value to sealed packets on a TCP deployment, over a
   client-only loop that runs before any server starts. A Prio client runs
   on its own device; in the stream it shares the 2 vCPUs with the server
   processes, whose wake-ups preempt it. (In-process, nothing runs beside
   it, and the stream's own client times are used.) The loop runs in
   slices of one rotation period on each allowed CPU in turn and reports
   the 10th percentile of the slice medians. A client call here takes tens
   of microseconds, and on a shared host most slices ran it 1.5 to 1.8
   times slower than the fastest ones, in a share that changed from run to
   run: the median over all calls spread 0.19 over ten runs of the same
   code, the 10th percentile of the slices about 0.08. *)
let client_only_ms o w ~seed_str ~master =
  let c = new_client seed_str 96 in
  let all = get_cpus () in
  let cpus = List.filter (fun b -> all land b <> 0) (List.init 62 (fun i -> 1 lsl i)) in
  let slices = Fbuf.create () and times = Fbuf.create () in
  let stop_at = now () +. client_s o in
  Fun.protect
    ~finally:(fun () -> set_cpus all)
    (fun () ->
      while now () < stop_at do
        List.iter
          (fun cpu ->
            set_cpus cpu;
            times.Fbuf.n <- 0;
            let slice_end = now () +. rotate_period in
            while times.Fbuf.n = 0 || now () < slice_end do
              let raw, honest = next_input w c in
              let t0 = now () in
              ignore
                (Sys.opaque_identity
                   (client_packets w ~master ~rng:c.rng ~client_id:c.k raw honest));
              Fbuf.push times (now () -. t0)
            done;
            Fbuf.push slices (median_buf times))
          cpus
      done);
  1e3 *. quantile 0.1 (Fbuf.to_array slices)

(* The measured slices of a run: one untraced slice, or untraced and
   traced slices alternating so neither kind gets the earlier,
   colder share of the run. *)
let slice_plan o =
  if o.trace then [ (false, o.seconds /. 4.); (true, o.seconds /. 4.);
                    (false, o.seconds /. 4.); (true, o.seconds /. 4.) ]
  else [ (false, o.seconds) ]

let check_aggregate o w truth ~accepted sigma =
  if o.corrupt then sigma.(0) <- F.add sigma.(0) F.one;
  let ok = w.reference_ok ~honest:truth.honest ~accepted sigma in
  info "aggregate" (if ok then "matches-reference" else "MISMATCH");
  if not ok then truth.failed <- truth.failed + 1;
  ok

(* ------------------------------------------------------------------ *)
(* In-process replay through each layer's public functions             *)
(* ------------------------------------------------------------------ *)

type replay = {
  prove : Fbuf.t;
  share : Fbuf.t;
  seal : Fbuf.t;
  receive : Fbuf.t;
  prepare : Fbuf.t;
  decide : Fbuf.t;
  accumulate : Fbuf.t;
  append : Fbuf.t;
  save : Fbuf.t;
  truncate : Fbuf.t;
  submit : Fbuf.t;
  mutable subs : int;
  mutable accepts : int;
}

(* Replay the workload's seeded inputs in protocol order: client prove,
   share and seal; every server's receive; every server's SNIP prepare;
   the openings summed; every server's decide share; the public decision;
   every server's accumulate; every server's journal append, snapshot save
   and journal truncate — the per-decision write schedule of the default
   durable tuning, on the run's own directory; and [Cluster.submit] on the
   same packets. Every workload pays each call here, so each layer has a
   measured per-call cost even where the deployment skips the layer.
   Verdicts are judged into [truth]; the inputs join no aggregate. *)
let run_replay w ~seed_str ~master ~seconds ~dir truth =
  let s = w.num_servers in
  let b () = Fbuf.create () in
  let r =
    { prove = b (); share = b (); seal = b (); receive = b (); prepare = b ();
      decide = b (); accumulate = b (); append = b (); save = b ();
      truncate = b (); submit = b (); subs = 0; accepts = 0 }
  in
  let mode = P.Client.Robust_snip w.circuit in
  let payload_elements =
    P.Client.payload_elements ~mode ~l:(P.Circuit.num_inputs w.circuit)
  in
  let servers =
    Array.init s (fun id ->
        P.Server.create ~id ~num_servers:s ~master ~trunc_len:w.trunc_len
          ~payload_elements)
  in
  let c = new_client seed_str 0 in
  let rng = c.rng in
  let ctx =
    P.Snip.make_batch_ctx ~rng:(Rng.of_string_seed (seed_str ^ "/batch"))
      ~circuit:w.circuit ~num_servers:s
  in
  let ok = function Ok () -> () | Error e -> failwith (Snap.string_of_error e) in
  mkdir_p dir;
  let journals =
    Array.init s (fun id ->
        match
          Ckpt.journal_open
            ~key:(Snap.derive_journal_key ~master ~server_id:id)
            ~dir ~server_id:id ()
        with
        | Ok (_, j) -> j
        | Error e -> failwith ("journal_open: " ^ Snap.string_of_error e))
  in
  let cluster =
    P.Cluster.create ~rng:(Rng.of_string_seed (seed_str ^ "/cluster"))
      ~mode:P.Cluster.Robust_snip ~circuit:w.circuit ~trunc_len:w.trunc_len
      ~num_servers:s ~master ()
  in
  let stop_at = now () +. seconds in
  while now () < stop_at || r.subs < 20 do
    let raw, honest = next_input w c in
    let client_id = r.subs in
    r.subs <- r.subs + 1;
    let enc = w.encode rng raw honest in
    let plain = timed r.prove (fun () -> P.Client.plain_vector ~rng ~mode enc) in
    let shares =
      timed r.share (fun () -> P.Client.Sh.split_compressed rng ~s plain)
    in
    let pk =
      timed r.seal (fun () -> P.Client.seal ~rng ~client_id ~master shares)
    in
    let flat =
      Array.mapi
        (fun i srv ->
          match
            timed r.receive (fun () ->
                P.Server.receive srv ~client_id pk.P.Client.sealed.(i))
          with
          | Some (_, share) -> share
          | None -> failwith "replay: a server refused an authentic packet")
        servers
    in
    let prepared =
      Array.map
        (fun share ->
          timed r.prepare (fun () ->
              P.Snip.server_prepare ctx
                (P.Snip.submission_of_vector w.circuit share)))
        flat
    in
    let d = Array.fold_left (fun a (_, o) -> F.add a o.P.Snip.d) F.zero prepared in
    let e = Array.fold_left (fun a (_, o) -> F.add a o.P.Snip.e) F.zero prepared in
    let verdicts =
      Array.map
        (fun (st, _) ->
          timed r.decide (fun () -> P.Snip.server_decide_share ctx st ~d ~e))
        prepared
    in
    let accepted = P.Snip.accept verdicts in
    if accepted then begin
      r.accepts <- r.accepts + 1;
      Array.iteri
        (fun i srv ->
          timed r.accumulate (fun () -> P.Server.accumulate srv flat.(i)))
        servers
    end;
    Array.iteri
      (fun i j ->
        let srv = servers.(i) in
        let entry =
          { Ckpt.j_seq = srv.P.Server.journal_seq + 1; j_client = client_id;
            j_accepted = accepted; j_epoch = srv.P.Server.epoch;
            j_share = (if accepted then flat.(i) else [||]) }
        in
        timed r.append (fun () -> ok (Ckpt.journal_append j entry));
        ignore (P.Server.record_decision srv ~client_id accepted : bool);
        timed r.save (fun () ->
            ok
              (Ckpt.save ~key:(Snap.derive_key ~master ~server_id:i) ~dir
                 (Ckpt.of_server srv)));
        timed r.truncate (fun () -> ok (Ckpt.journal_truncate j)))
      journals;
    let got = timed r.submit (fun () -> P.Cluster.submit cluster ~client_id pk) in
    ignore (judge c.truth ~raw ~honest (Some got) : bool);
    ignore (judge c.truth ~raw ~honest (Some accepted) : bool)
  done;
  Array.iter Ckpt.journal_close journals;
  truth.attempted <- truth.attempted + c.truth.attempted;
  truth.failed <- truth.failed + c.truth.failed;
  r

(* Snapshot load plus journal open (chain verification) on server 1's
   files: what a restarting follower reads before it serves. *)
let restore_us ~master ~dir ~reps =
  let once () =
    let t0 = now () in
    (match
       Ckpt.load ~key:(Snap.derive_key ~master ~server_id:1) ~dir ~server_id:1 ()
     with
    | Ok _ -> ()
    | Error e -> failwith ("restore load: " ^ Snap.string_of_error e));
    (match
       Ckpt.journal_open
         ~key:(Snap.derive_journal_key ~master ~server_id:1)
         ~dir ~server_id:1 ()
     with
    | Ok (_, j) -> Ckpt.journal_close j
    | Error e -> failwith ("restore journal: " ^ Snap.string_of_error e));
    1e6 *. (now () -. t0)
  in
  median (Array.init reps (fun _ -> once ()))

(* Cold start to first accepted submission, median of the run's set-ups. *)
let e2e_setup setups =
  e2e "setup_s" (median_buf setups) "s";
  info "setup_samples_ms"
    (String.concat ","
       (List.map (fun x -> Printf.sprintf "%.1f" (1e3 *. x))
          (Array.to_list (Fbuf.to_array setups))))

(* The layer-call medians of a replay, in microseconds. *)
let us_median b = 1e6 *. median_buf b

(* The summed layer medians of the verifying servers: every server
   receives, prepares and decides, and the accepting share of them
   accumulates. *)
let compute_us w r =
  let sf = float_of_int w.num_servers in
  let accept_share = float_of_int r.accepts /. float_of_int (max 1 r.subs) in
  (sf *. (us_median r.receive +. us_median r.prepare +. us_median r.decide))
  +. (accept_share *. sf *. us_median r.accumulate)

(* The path that blocks one verdict: the servers' compute and, on a
   durable deployment, every server's journal append, snapshot save and
   journal truncate before the verdict is released. *)
let blocking_us w r =
  compute_us w r
  +.
  if w.durable then
    float_of_int w.num_servers
    *. (us_median r.append +. us_median r.save +. us_median r.truncate)
  else 0.

let replay_layers w r =
  List.iter
    (fun (n, b) -> layer n (us_median b) "us")
    [ ("client.prove_us", r.prove); ("client.share_us", r.share);
      ("client.seal_us", r.seal); ("server.receive_us", r.receive);
      ("server.accumulate_us", r.accumulate); ("snip.prepare_us", r.prepare);
      ("snip.decide_us", r.decide); ("checkpoint.journal_append_us", r.append);
      ("checkpoint.snapshot_save_us", r.save);
      ("checkpoint.journal_truncate_us", r.truncate);
      ("cluster.submit_us", r.submit) ];
  (* Cluster.submit's self time outside the Server and Snip calls *)
  layer "cluster.overhead_us" (us_median r.submit -. compute_us w r) "us";
  info "replay_submissions" (string_of_int r.subs)

(* Median of 31 health-probe round trips to a deployment's leader. *)
let probe_rtt_us d =
  let probe () =
    let t0 = now () in
    (match Tr.probe_health d.Net.addrs.(0) with
    | Ok _ -> ()
    | Error e -> failwith ("probe: " ^ Tr.string_of_protocol_error e));
    1e6 *. (now () -. t0)
  in
  median (Array.init 31 (fun _ -> probe ()))

let write_trace o w s =
  write_spans
    (Filename.concat out_dir (Printf.sprintf "spans-%s-s%d.jsonl" w.name o.seed))
    s.recorders

(* ------------------------------------------------------------------ *)
(* TCP deployments                                                      *)
(* ------------------------------------------------------------------ *)

let main_pid = Unix.getpid ()
let live : Net.deployment list ref = ref []

let launch w ~master ~batch_seed ~dir =
  let tuning =
    if w.durable then
      { Tr.default_tuning with epoch_size; checkpoint_dir = Some dir }
    else Tr.default_tuning
  in
  let cfg =
    { Net.circuit = w.circuit; trunc_len = w.trunc_len;
      num_servers = w.num_servers; master; batch_seed }
  in
  let d = Net.launch ~tuning cfg in
  live := d :: !live;
  d

let stop d =
  live := List.filter (fun x -> x != d) !live;
  Net.shutdown d

let stop_all () = List.iter stop !live

(* forked servers run at_exit too: only the benchmark process stops them *)
let () = at_exit (fun () -> if Unix.getpid () = main_pid then stop_all ())

(* Server-side counters of a TCP deployment: the servers' own registries
   scraped live over TCP, their /proc entries, and the client's retry
   counter. *)
type counters = {
  tx_bytes : float;
  tx_frames : float;
  sheds : float;
  repairs : float;
  syscw : float;  (** write syscalls summed over server processes *)
  wchar : float;  (** bytes written summed over server processes *)
  retries : float;
}

let no_counters =
  { tx_bytes = 0.; tx_frames = 0.; sheds = 0.; repairs = 0.;
    syscw = 0.; wchar = 0.; retries = 0. }

let retries_counter = Prio.Obs_metrics.counter "prio_retry_attempts_total"

let counters d =
  let get text name =
    List.find_map
      (fun l ->
        match words l with
        | [ n; v ] when n = name -> float_of_string_opt v
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:0.
  in
  let zero =
    { no_counters with
      retries = float_of_int (Prio.Obs_metrics.value retries_counter) }
  in
  let scraped =
    Array.fold_left
      (fun acc addr ->
        match Tr.scrape_metrics addr with
        | Error e -> failwith ("scrape: " ^ Tr.string_of_protocol_error e)
        | Ok t ->
          { acc with
            tx_bytes = acc.tx_bytes +. get t "prio_net_tx_bytes_total";
            tx_frames = acc.tx_frames +. get t "prio_net_tx_frames_total";
            sheds = acc.sheds +. get t "prio_net_shed_total";
            repairs = acc.repairs +. get t "prio_commit_repairs_total" })
      zero d.Net.addrs
  in
  Array.fold_left
    (fun acc pid ->
      { acc with
        syscw = acc.syscw +. proc_field pid "io" "syscw";
        wchar = acc.wchar +. proc_field pid "io" "wchar" })
    scraped d.Net.pids

let lift f a b =
  { tx_bytes = f a.tx_bytes b.tx_bytes; tx_frames = f a.tx_frames b.tx_frames;
    sheds = f a.sheds b.sheds; repairs = f a.repairs b.repairs;
    syscw = f a.syscw b.syscw;
    wchar = f a.wchar b.wchar; retries = f a.retries b.retries }

let max_hwm_mb pids =
  Array.fold_left (fun m pid -> Float.max m (proc_field pid "status" "VmHWM")) 0. pids
  /. 1024.

(* Submit one input over a session and judge its verdict. *)
let tcp_submit w ~master ~sess ~next_id c smp =
  let raw, honest = next_input w c in
  let client_id = Atomic.fetch_and_add next_id 1 in
  let t0 = now () in
  let pk =
    client_packets ?recorder:smp.recorder w ~master ~rng:c.rng ~client_id raw
      honest
  in
  let t1 = now () in
  let out =
    with_span smp.recorder ~sub:client_id "net.submit"
      (fun () -> Net.submit_packets_session sess ~rng:c.rng ~client_id pk)
  in
  let t2 = now () in
  record smp c ~raw ~honest ~t0 ~t1 ~t2
    (match out with
    | Net.Accepted -> Some true
    | Net.Rejected _ -> Some false
    | Net.Unreachable _ -> None)

(* A closed loop per client thread for [seconds]: each client's next
   submission starts when its previous verdict arrives. *)
let tcp_phase w ~master ~sessions ~next_id ~traced ~seconds ~server_cpu clients =
  let nw = n_windows seconds in
  let bounds = Array.make (nw + 1) 0. and cpu = Array.make (nw + 1) 0. in
  let host = Array.make (nw + 1) (host_sample ()) in
  cpu.(0) <- server_cpu ();
  let t0 = now () in
  bounds.(0) <- t0;
  let stop_at = t0 +. seconds in
  let smps = Array.map (fun _ -> new_samples traced) clients in
  let errors = Array.make (Array.length clients) None in
  let threads =
    Array.mapi
      (fun i c ->
        Thread.create
          (fun () ->
            try
              while now () < stop_at do
                tcp_submit w ~master ~sess:sessions.(i) ~next_id c smps.(i)
              done
            with e -> errors.(i) <- Some e)
          ())
      clients
  in
  (* meanwhile, read the servers' CPU at every window bound *)
  for k = 1 to nw do
    let dt = t0 +. (seconds *. float_of_int k /. float_of_int nw) -. now () in
    if dt > 0. then Thread.delay dt;
    bounds.(k) <- now ();
    cpu.(k) <- server_cpu ();
    host.(k) <- host_sample ()
  done;
  Array.iter Thread.join threads;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  stream_of ~bounds ~cpu ~host (Array.to_list smps)

let run_tcp o w ~seed_str ~tmp truth =
  let setup_rng = Rng.of_string_seed (seed_str ^ "/setup") in
  let master = Rng.bytes setup_rng 32 in
  let batch_seed = Rng.bytes setup_rng 32 in
  let client_ms = client_only_ms o w ~seed_str ~master in
  let setup_client = new_client seed_str 99 in
  let setups = Fbuf.create () in
  (* a cold set-up: launch, session, first accepted submission *)
  let cold_setup (c : client) i =
    let dir = Filename.concat tmp (Printf.sprintf "ckpt-%d" i) in
    mkdir_p dir;
    let t0 = now () in
    let d = launch w ~master ~batch_seed ~dir in
    let sess = Net.open_session d in
    let pk = client_packets w ~master ~rng:setup_rng ~client_id:0 [| 0 |] true in
    let out = Net.submit_packets_session sess ~rng:setup_rng ~client_id:0 pk in
    Fbuf.push setups (now () -. t0);
    ignore (judge c.truth ~raw:[| 0 |] ~honest:true (Some (out = Net.Accepted)) : bool);
    (d, sess, dir)
  in
  (* set-ups whose deployment is torn down at once: half before the
     measured deployment, half after it, so the median spans the run *)
  let throwaway_setups first =
    for i = first to first + n_setups o - 1 do
      let c = new_client seed_str 97 in
      let d, sess, dir = cold_setup c i in
      truth.attempted <- truth.attempted + c.truth.attempted;
      truth.failed <- truth.failed + c.truth.failed;
      Net.close_session sess;
      stop d;
      rm_rf dir
    done
  in
  throwaway_setups 1;
  let d, sess0, dir = cold_setup setup_client 0 in
  let clients = Array.init w.sessions (fun i -> new_client seed_str i) in
  let sessions =
    Array.init w.sessions (fun i -> if i = 0 then sess0 else Net.open_session d)
  in
  let next_id = Atomic.make 1 in
  let phase ~traced seconds =
    tcp_phase w ~master ~sessions ~next_id ~traced ~seconds
      ~server_cpu:(fun () ->
        Array.fold_left (fun a pid -> a +. proc_cpu_s pid) 0. d.Net.pids)
      clients
  in
  ignore (phase ~traced:false (warmup_s o) : stream);
  let slices =
    List.map
      (fun (traced, secs) ->
        let c0 = counters d in
        let st = phase ~traced secs in
        (traced, st, lift ( -. ) (counters d) c0))
      (slice_plan o)
  in
  let of_kind kind =
    let mine = List.filter (fun (t, _, _) -> t = kind) slices in
    ( concat_streams (List.map (fun (_, st, _) -> st) mine),
      List.fold_left (fun a (_, _, c) -> lift ( +. ) a c) no_counters mine )
  in
  let s, cu = of_kind false in
  let upload_bytes =
    let c = new_client seed_str 98 in
    let raw, honest = next_input w c in
    client_packets w ~master ~rng:c.rng ~client_id:0 raw honest
  in
  e2e_stream s ~client_ms
    ~upload_bytes:(float_of_int upload_bytes.P.Client.upload_bytes)
    ~server_bytes:cu.tx_bytes
    ~rss_mb:(max_hwm_mb d.Net.pids);
  (* traced slices: same deployment, spans around every layer call *)
  let traced =
    if not o.trace then None
    else begin
      let st, ct = of_kind true in
      let per x = x /. float_of_int (max 1 st.decided) in
      layer "server.write_calls_per_sub" (per ct.syscw) "count/sub";
      layer "server.write_bytes_per_sub" (per ct.wchar) "bytes/sub";
      layer "net.frames_per_sub" (per ct.tx_frames) "count/sub";
      layer "net.retries_per_sub" (per ct.retries) "count/sub";
      layer "net.sheds" ct.sheds "count";
      layer "net.commit_repairs" ct.repairs "count";
      Some (st, probe_rtt_us d)
    end
  in
  (* restore drill: SIGKILL follower 1 at mid-epoch points, restart it,
     time until the next accepted submission *)
  if w.durable then begin
    let c = clients.(0) and smp = new_samples false in
    let drill = Fbuf.create () in
    for _ = 1 to n_drill o do
      for _ = 1 to 7 + Rng.int_below c.rng 40 do
        tcp_submit w ~master ~sess:sess0 ~next_id c smp
      done;
      Unix.kill d.Net.pids.(1) Sys.sigkill;
      let rec wait_dead n =
        match (Net.poll_servers d).(1) with
        | Net.Exited _ -> ()
        | Net.Running ->
          if n = 0 then failwith "drill: follower 1 survived SIGKILL";
          Unix.sleepf 0.002;
          wait_dead (n - 1)
      in
      wait_dead 5000;
      let t0 = now () in
      Net.restart_server d 1;
      tcp_submit w ~master ~sess:sess0 ~next_id c smp;
      Fbuf.push drill (now () -. t0)
    done;
    e2e "restore_ms" (1e3 *. median_buf drill) "ms"
  end;
  Array.iter Net.close_session sessions;
  Array.iter (fun c -> merge_truth truth c.truth) (Array.append [| setup_client |] clients);
  (match Net.collect_aggregate d with
  | Error (i, e) ->
    failwith (Printf.sprintf "collect: server %d: %s" i (Tr.string_of_protocol_error e))
  | Ok sigma ->
    ignore (check_aggregate o w truth ~accepted:(List.length truth.honest) sigma : bool));
  stop d;
  throwaway_setups 1000;
  e2e_setup setups;
  match traced with
  | None -> ()
  | Some (st, rtt) ->
    let replay_dir = Filename.concat tmp "replay" in
    let r = run_replay w ~seed_str ~master ~seconds:(replay_s o) ~dir:replay_dir truth in
    replay_layers w r;
    (* the killed follower's files, read back as its restart does; without
       durability, the replay's files *)
    layer "checkpoint.restore_us"
      (restore_us ~master ~dir:(if w.durable then dir else replay_dir)
         ~reps:(restore_reps o))
      "us";
    let rts = float_of_int (w.num_servers + 1 + (3 * (w.num_servers - 1))) in
    let residual = (1e6 *. p50_of s) -. blocking_us w r in
    layer "net.rtt_us" rtt "us";
    layer "net.residual_us" residual "us";
    layer "net.unexplained_us" (residual -. (rts *. rtt)) "us";
    layer "trace.overhead_share" ((p50_of st /. p50_of s) -. 1.) "1";
    info "blocking_round_trips" (Printf.sprintf "%.0f" rts);
    write_trace o w st

(* ------------------------------------------------------------------ *)
(* In-process workload                                                  *)
(* ------------------------------------------------------------------ *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let run_inproc o w ~seed_str ~tmp truth =
  let setup_rng = Rng.of_string_seed (seed_str ^ "/setup") in
  let master = Rng.bytes setup_rng 32 in
  let create () =
    P.Cluster.create ~rng:(Rng.of_string_seed (seed_str ^ "/cluster"))
      ~mode:P.Cluster.Robust_snip ~circuit:w.circuit ~trunc_len:w.trunc_len
      ~num_servers:w.num_servers ~master ()
  in
  (* one thread does all the work here, so it measures the mean vCPU *)
  rotate_start rotate_period;
  let next_id = ref 0 in
  let cpu = ref 0. in
  (* one submission through [Cluster.submit]; its CPU time is the
     servers' CPU time in-process *)
  let submit cl c smp =
    let raw, honest = next_input w c in
    let client_id = !next_id in
    incr next_id;
    let t0 = now () in
    let pk =
      client_packets ?recorder:smp.recorder w ~master ~rng:c.rng ~client_id raw
        honest
    in
    let t1 = now () in
    let u0 = cpu_now () in
    let accepted =
      with_span smp.recorder ~sub:client_id "cluster.submit"
        (fun () -> P.Cluster.submit cl ~client_id pk)
    in
    cpu := !cpu +. (cpu_now () -. u0);
    record smp c ~raw ~honest ~t0 ~t1 ~t2:(now ()) (Some accepted);
    pk.P.Client.upload_bytes
  in
  let setups = Fbuf.create () in
  (* a cold set-up: Cluster.create, batch context, first accepted
     submission; half the throwaway ones run before the measured cluster
     is created, half after its stream *)
  let cold_setup (c : client) =
    let t0 = now () in
    let cl = create () in
    ignore (submit cl c (new_samples false) : int);
    Fbuf.push setups (now () -. t0);
    cl
  in
  let throwaway_setups () =
    for _ = 1 to n_setups o do
      let c = new_client seed_str 97 in
      ignore (cold_setup c : P.Cluster.t);
      truth.attempted <- truth.attempted + c.truth.attempted;
      truth.failed <- truth.failed + c.truth.failed
    done
  in
  throwaway_setups ();
  let setup_client = new_client seed_str 99 in
  let cl = cold_setup setup_client in
  let c = new_client seed_str 0 in
  let phase ~traced seconds =
    let smp = new_samples traced in
    let nw = n_windows seconds in
    let bounds = Array.make (nw + 1) 0. and cpus = Array.make (nw + 1) !cpu in
    let host = Array.make (nw + 1) (host_sample ()) in
    let t0 = now () in
    bounds.(0) <- t0;
    let stop_at = t0 +. seconds in
    let upload = ref 0 and k = ref 1 in
    while now () < stop_at do
      upload := submit cl c smp;
      let t = now () in
      while !k <= nw && t >= t0 +. (seconds *. float_of_int !k /. float_of_int nw) do
        bounds.(!k) <- t;
        cpus.(!k) <- !cpu;
        host.(!k) <- host_sample ();
        incr k
      done
    done;
    (stream_of ~bounds ~cpu:cpus ~host [ smp ], !upload)
  in
  ignore (phase ~traced:false (warmup_s o) : stream * int);
  let slices =
    List.map
      (fun (traced, secs) ->
        let b0 = P.Cluster.total_server_bytes cl in
        let st, upload = phase ~traced secs in
        (traced, st, P.Cluster.total_server_bytes cl - b0, upload))
      (slice_plan o)
  in
  let of_kind kind = List.filter (fun (t, _, _, _) -> t = kind) slices in
  let untraced = of_kind false in
  let s = concat_streams (List.map (fun (_, st, _, _) -> st) untraced) in
  e2e_stream s
    ~upload_bytes:(List.fold_left (fun _ (_, _, _, u) -> float_of_int u) 0. untraced)
    ~server_bytes:
      (float_of_int (List.fold_left (fun a (_, _, b, _) -> a + b) 0 untraced))
    ~rss_mb:(proc_field (Unix.getpid ()) "status" "VmHWM" /. 1024.);
  let traced =
    if o.trace then
      Some (concat_streams (List.map (fun (_, st, _, _) -> st) (of_kind true)))
    else None
  in
  merge_truth truth setup_client.truth;
  merge_truth truth c.truth;
  ignore
    (check_aggregate o w truth ~accepted:cl.P.Cluster.accepted (P.Cluster.publish cl)
      : bool);
  throwaway_setups ();
  e2e_setup setups;
  match traced with
  | None -> ()
  | Some st ->
    let replay_dir = Filename.concat tmp "replay" in
    let r = run_replay w ~seed_str ~master ~seconds:(replay_s o) ~dir:replay_dir truth in
    replay_layers w r;
    layer "checkpoint.restore_us"
      (restore_us ~master ~dir:replay_dir ~reps:(restore_reps o))
      "us";
    List.iter
      (fun (n, u) -> layer n 0. u)
      [ ("server.write_calls_per_sub", "count/sub");
        ("server.write_bytes_per_sub", "bytes/sub"); ("net.frames_per_sub", "count/sub");
        ("net.retries_per_sub", "count/sub"); ("net.sheds", "count");
        ("net.commit_repairs", "count") ];
    (* no deployment here: the round trip of a minimal two-server one is
       the host's loopback and event-loop cost; its servers get every CPU *)
    rotate_stop ();
    let rtt =
      let afe = P.Afe_sum.sum ~bits:1 in
      let d =
        Net.launch
          { Net.circuit = afe.P.Afe.circuit; trunc_len = afe.P.Afe.trunc_len;
            num_servers = 2; master; batch_seed = master }
      in
      live := d :: !live;
      Fun.protect ~finally:(fun () -> stop d) (fun () -> probe_rtt_us d)
    in
    layer "net.rtt_us" rtt "us";
    (* no sockets: what the layer calls leave of the latency is the
       cluster's own self time, and no round trip explains any of it *)
    let residual = (1e6 *. p50_of s) -. blocking_us w r in
    layer "net.residual_us" residual "us";
    layer "net.unexplained_us" residual "us";
    layer "trace.overhead_share" ((p50_of st /. p50_of s) -. 1.) "1";
    write_trace o w st

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let usage =
  "perfbench.exe --workload {count_durable|hist64_reject|bits1024_cluster} \
   --seed N --seconds S --trace {0|1} [--smoke] [--corrupt-aggregate]"

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false in
  let corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0 = end-to-end metrics, 1 = per-layer");
      ("--smoke", Arg.Set smoke, " tiny repeat counts (self-test)");
      ("--corrupt-aggregate", Arg.Set corrupt, " corrupt the aggregate (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    smoke = !smoke;
    corrupt = !corrupt;
  }

let json_metrics entries =
  "{"
  ^ String.concat ","
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" n v u)
         entries)
  ^ "}"

(* End-to-end metrics in the benchmark's JSON: every workload reports
   these. [restore_ms] (durable workload only) and [failed_share] are
   printed beside them; [failed_share] is also the JSON's failed/attempted. *)
let json_e2e =
  [ "throughput_sps"; "latency_p50_ms"; "latency_p90_ms"; "client_ms";
    "server_cpu_ms"; "upload_bytes"; "server_bytes"; "server_rss_mb"; "setup_s" ]

let () =
  Tr.ignore_sigpipe ();
  let o = parse_args () in
  let w =
    match List.assoc_opt o.workload workloads with
    | Some mk -> mk ()
    | None ->
      prerr_endline ("unknown workload: " ^ o.workload ^ "\n" ^ usage);
      exit 2
  in
  mkdir_p out_dir;
  let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p tmp;
  let seed_str = Printf.sprintf "perfbench/%s/%d" w.name o.seed in
  let truth = new_truth () in
  let h0 = host_sample () and calib0 = calibration_us () in
  let t_start = now () in
  (try
     Fun.protect
       ~finally:(fun () ->
         rotate_stop ();
         stop_all ();
         rm_rf tmp)
       (fun () ->
         if w.sessions > 0 then run_tcp o w ~seed_str ~tmp truth
         else run_inproc o w ~seed_str ~tmp truth)
   with e ->
     Printf.eprintf "perfbench: %s failed: %s\n%!" w.name (Printexc.to_string e);
     exit 2);
  let elapsed = now () -. t_start in
  let h1 = host_sample () and calib1 = calibration_us () in
  let failed_share =
    float_of_int truth.failed /. float_of_int (max 1 truth.attempted)
  in
  let noise =
    [ ("host.steal_share",
       (h1.steal -. h0.steal) /. Float.max 1. (h1.total -. h0.total), "1");
      ("host.cpu_pressure_share", (h1.cpu_stall_us -. h0.cpu_stall_us) /. (elapsed *. 1e6), "1");
      ("host.io_pressure_share", (h1.io_stall_us -. h0.io_stall_us) /. (elapsed *. 1e6), "1");
      ("host.calib_us", median [| calib0; calib1 |], "us") ]
  in
  let e2e_all = List.rev res.e2e in
  let layers_all = List.rev res.layers @ noise in
  Printf.printf "info workload %s seed %d trace %d seconds %g\n" w.name o.seed
    (if o.trace then 1 else 0) o.seconds;
  List.iter (fun (k, v) -> Printf.printf "info %s %s\n" k v) (List.rev res.info);
  List.iter (fun (n, v, u) -> Printf.printf "metric %s %.6g %s\n" n v u) e2e_all;
  Printf.printf "metric failed_share %.6g 1\n" failed_share;
  List.iter (fun (n, v, u) -> Printf.printf "layer %s %.6g %s\n" n v u) (List.rev res.layers);
  List.iter (fun (n, v, u) -> Printf.printf "noise %s %.6g %s\n" n v u) noise;
  let correct = truth.failed = 0 in
  let metrics =
    if o.trace then layers_all
    else List.filter (fun (n, _, _) -> List.mem n json_e2e) e2e_all
  in
  let record =
    Printf.sprintf
      "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}" correct
      truth.attempted truth.failed (json_metrics metrics)
  in
  (* the whole run, beside the JSON result line *)
  let oc =
    open_out
      (Filename.concat out_dir
         (Printf.sprintf "run-%s-s%d-t%d.json" w.name o.seed (if o.trace then 1 else 0)))
  in
  Printf.fprintf oc
    "{\"workload\":%S,\"seed\":%d,\"trace\":%b,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"failed_share\":%.17g,\"end_to_end\":%s,\"per_layer\":%s}\n"
    w.name o.seed o.trace correct truth.attempted truth.failed failed_share
    (json_metrics e2e_all) (json_metrics layers_all);
  close_out oc;
  print_endline record;
  exit (if correct then 0 else 1)
