type component = Iova_alloc | Iova_find | Iova_free | Page_table | Iotlb_inv | Other

let component_name = function
  | Iova_alloc -> "iova alloc"
  | Iova_find -> "iova find"
  | Iova_free -> "iova free"
  | Page_table -> "page table"
  | Iotlb_inv -> "iotlb inv"
  | Other -> "other"

let all_components = [ Iova_alloc; Iova_find; Iova_free; Page_table; Iotlb_inv; Other ]

let index = function
  | Iova_alloc -> 0
  | Iova_find -> 1
  | Iova_free -> 2
  | Page_table -> 3
  | Iotlb_inv -> 4
  | Other -> 5

type t = { totals : int array; mutable calls : int }

let create () = { totals = Array.make 6 0; calls = 0 }

let charge t comp n = t.totals.(index comp) <- t.totals.(index comp) + n
let record_call t = t.calls <- t.calls + 1
let calls t = t.calls
let total_cycles t comp = t.totals.(index comp)

let mean_cycles t comp =
  if t.calls = 0 then 0.
  else float_of_int t.totals.(index comp) /. float_of_int t.calls

let mean_sum t =
  List.fold_left (fun acc c -> acc +. mean_cycles t c) 0. all_components

let reset t =
  Array.fill t.totals 0 6 0;
  t.calls <- 0
