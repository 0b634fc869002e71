"""Bitwise pins of the library facades' results.

One call per (implementation, collective, size) on the tiny test
machine at p=8, one size on each side of YHCCL's small-message switch
(``SMALL_THRESHOLD``).  The values were recorded from the facades
before their five calls were folded into one shared runner; any change
to allocation order, RNG use or routing moves them, so the comparisons
are ``==``, never ``approx``.  ``counters`` pins the sha256 of the
canonical ``repro-obs/1`` snapshot.
"""

import hashlib

import pytest

from repro.bench.jsonio import canonical_dumps
from repro.collectives.switching import SMALL_THRESHOLD
from repro.library import YHCCL, Communicator, MPILibrary

from tests.conftest import TINY

KB = 1024
SIZES = (64 * KB, 1024 * KB)

#: (implementation, kind, nbytes) -> (time, dav, memory_traffic,
#: sync_count, algorithm, copy_policy, counters sha256)
PINNED = {
    ('YHCCL', 'allreduce', 65536): (0.00013624920000000008, 3473408, 1769472, 4, 'dpml2-allreduce', 'adaptive', '3a40d6eea105a22c66000dbdda6d0f200d4627addd4904fd4c98d53520387309'),
    ('YHCCL', 'allreduce', 1048576): (0.0021020483999999997, 42991616, 27525120, 50, 'socket-ma-allreduce', 'adaptive', 'b25f3bd36fc38fb7effacda60a7b35cfbfc57088bd3282aa6a507f28b8bff108'),
    ('YHCCL', 'reduce', 65536): (0.0001260284, 2555904, 1179648, 2, 'dpml-reduce', 'adaptive', 'e14130919cfd070d4e6f54db34be8844db989ca378f1c81519ab0f424978d1f9'),
    ('YHCCL', 'reduce', 1048576): (0.0013680452, 28311552, 17956864, 50, 'socket-ma-reduce', 'adaptive', '97917f75556040cea8a50bce9728a49c466350c7b58fc2f8a88755be45cf3fbb'),
    ('YHCCL', 'reduce_scatter', 65536): (0.00010653280000000002, 2555904, 1179648, 1, 'dpml-reduce-scatter', 'adaptive', 'e76d1daa5d4c6a2bf9d87017d3d66cabff924c5fe624324d4ad625ab1e75a995'),
    ('YHCCL', 'reduce_scatter', 1048576): (0.0012057588, 26214400, 18612224, 49, 'socket-ma-reduce-scatter', 'adaptive', '76a10003f67cdba7ce63f3009d4006ea49123030f98b3401d69e6ee07c45eb9e'),
    ('YHCCL', 'bcast', 65536): (0.000118188, 1048576, 589824, 1, 'pipelined-bcast', 'adaptive', 'f4aabb3233c9d37bfdd333509c53fc70debea71fcc8148b4538208e618aa6515'),
    ('YHCCL', 'bcast', 1048576): (0.0010289508, 16777216, 8650752, 8, 'pipelined-bcast', 'adaptive', '75f2432fcaacbe25d1a8c186f1e1f0cbd543eb577013b414c284b4f1a88fc2d0'),
    ('YHCCL', 'allgather', 65536): (0.00040174279999999996, 9437184, 5242880, 1, 'pipelined-allgather', 'adaptive', '36c8f87dc99d950cb9bfd973d8c67a063630c5f8439e5ab65186e58b2612626a'),
    ('YHCCL', 'allgather', 1048576): (0.008292982400000001, 150994944, 106692608, 8, 'pipelined-allgather', 'adaptive', 'faead6100a8ea14f9fb4150b2b83ea31e6e4a54336e16fefd658bb5e7d1b191f'),
    ('Intel MPI', 'allreduce', 65536): (0.00016703180000000002, 3342336, 1310720, 144, 'impi-ar', 't', '4da517aec1b26e7603a58c6c306ff4bea4189cfc940dba648fbea56282606361'),
    ('Intel MPI', 'allreduce', 1048576): (0.004362316800000001, 53477376, 53870592, 144, 'impi-ar', 't', '70a56d213738c36f7e53e7ec9d188a06eaf6b157303df168018fc8b138586dbc'),
    ('Intel MPI', 'reduce', 65536): (0.000173732, 2162688, 1114112, 7, 'rg-reduce', 'memmove', 'c5ff97430adb47cde612b071a58e52aee0fbd9ae9fb7e9c3b7c354d527617c4f'),
    ('Intel MPI', 'reduce', 1048576): (0.002972677200000001, 34603008, 32899072, 98, 'rg-reduce', 'memmove', '3305f2c35f30476ff37351c5be0a0ef310e2c6224267c229e8cc4f78fe11c5b7'),
    ('Intel MPI', 'reduce_scatter', 65536): (0.00010421100000000001, 2293760, 786432, 88, 'impi-rs', 't', '2d612aeb82e9ac36ed6acf1c3076b4710d344b246b7482eadebcf952b2cbf459'),
    ('Intel MPI', 'reduce_scatter', 1048576): (0.0025903448000000003, 36700160, 33030144, 88, 'impi-rs', 't', 'af887631b8d7de1a52ead69c275c73312ce17756d12ac24f20a7e0eb28fa6cf9'),
    ('Intel MPI', 'bcast', 65536): (0.000118188, 1048576, 589824, 1, 'pipelined-bcast', 'memmove', 'f4aabb3233c9d37bfdd333509c53fc70debea71fcc8148b4538208e618aa6515'),
    ('Intel MPI', 'bcast', 1048576): (0.0017336504000000003, 16777216, 16777216, 1, 'pipelined-bcast', 'memmove', '428c9d55fc10a6327cba29bf736ff230bde0d3e3fdede96d84827d8d904ddf55'),
    ('Intel MPI', 'allgather', 65536): (0.0007349392000000002, 8388608, 7995392, 1, 'impi-ag', 't', 'ca953ff802c376d0bd541810ab02f175798099d65085deaea77e3cbdd78cf1fb'),
    ('Intel MPI', 'allgather', 1048576): (0.012725032000000002, 134217728, 201326592, 1, 'impi-ag', 't', 'a2b2e15281f047cca890a9603b9d1f48af8c14f6ba039728032d12e9b8c3f858'),
    ('MPICH', 'allreduce', 65536): (0.0002285672, 3473408, 2818048, 25, 'mpich-allreduce', 't', 'f8bf12e511def1e041ac5561afbc17bca662db98401498aa78746d2a327e271b'),
    ('MPICH', 'allreduce', 1048576): (0.0044388472, 55574528, 74186752, 25, 'mpich-allreduce', 't', '463b2c58223a785c41dc5fe4499933ce8c0485fbef212eb36ceafca78934febb'),
    ('MPICH', 'reduce', 65536): (0.0001296684, 1900544, 1114112, 14, 'mpich-reduce', 't', '5435854a772628f4838a6ae3de059f0177aa6ecc2329cefac041fa4f862d57ab'),
    ('MPICH', 'reduce', 1048576): (0.0014219283999999995, 30408704, 10813440, 434, 'mpich-reduce', 't', '053a5cedee0657cbc2a31a16b8aeea5e9ad49c7df5ae67de679aa0faa7b5f688'),
    ('MPICH', 'reduce_scatter', 65536): (0.0001522812, 2424832, 2097152, 24, 'mpich-reduce-scatter', 't', '98fe43d23604afc15a6b4ed9c1de26b20fb05e850ec8c9eba6b8eca48f39262d'),
    ('MPICH', 'reduce_scatter', 1048576): (0.0031659492000000004, 38797312, 48234496, 24, 'mpich-reduce-scatter', 't', 'f9f0a9516e8e44d2d60fd50f60470da45f1128112415e9c038536bd05511bade'),
    ('MPICH', 'bcast', 65536): (0.00010108520000000001, 1048576, 589824, 2, 'mpich-bcast', 't', '020bb2c52f8984867a41092264d9d1b4fe2195aaa8d773b96512f49995122d97'),
    ('MPICH', 'bcast', 1048576): (0.001643287599999999, 16777216, 14155776, 32, 'mpich-bcast', 't', '96e1b1265fcca8ad679492a11339cc5c10b4e7c98ee905d0c5ec022ff8166b95'),
    ('MPICH', 'allgather', 65536): (0.0007141368000000001, 9437184, 8617984, 2, 'mpich-allgather', 't', '2487da28b6ffc1ac1f1d620547cdc21b75e1678a21f71ecaea4b768e8d252cb9'),
    ('MPICH', 'allgather', 1048576): (0.01221917440000001, 150994944, 160399360, 32, 'mpich-allgather', 't', 'c8d3ad9c9f8022fb4b8d0fce6997e9f9b7f713a583a219375f699e9fd76f578e'),
    ('MVAPICH2', 'allreduce', 65536): (0.00013952600000000003, 3473408, 1769472, 4, 'dpml2-allreduce', 't', 'dfaa48c7e27390f2eb5afaee2a059b907185e94eb5d9364bf62dcb78253c4d80'),
    ('MVAPICH2', 'allreduce', 1048576): (0.0033895200000000013, 55574528, 62849024, 4, 'dpml2-allreduce', 't', '2581594ecf3f50a0772c7e2686de78dcc6939b02e5b4ce8d3680063d10ad9c16'),
    ('MVAPICH2', 'reduce', 65536): (0.0001260284, 2555904, 1179648, 2, 'dpml-reduce', 't', 'e14130919cfd070d4e6f54db34be8844db989ca378f1c81519ab0f424978d1f9'),
    ('MVAPICH2', 'reduce', 1048576): (0.0024520863999999937, 40894464, 38158336, 2, 'dpml-reduce', 't', '2663fd243d38625e65a105af5e510c0c0ed3389f0c6faf4a5f5682f748390ee8'),
    ('MVAPICH2', 'reduce_scatter', 65536): (0.00010653280000000002, 2555904, 1179648, 1, 'dpml-reduce-scatter', 't', 'e76d1daa5d4c6a2bf9d87017d3d66cabff924c5fe624324d4ad625ab1e75a995'),
    ('MVAPICH2', 'reduce_scatter', 1048576): (0.002200459199999998, 40894464, 37470208, 1, 'dpml-reduce-scatter', 't', '2f1a621496098f2e7e782c32f6c13e90b5fe54a515cebc3d94d28cc0c300f108'),
    ('MVAPICH2', 'bcast', 65536): (0.000118188, 1048576, 589824, 1, 'pipelined-bcast', 't', 'f4aabb3233c9d37bfdd333509c53fc70debea71fcc8148b4538208e618aa6515'),
    ('MVAPICH2', 'bcast', 1048576): (0.0026773688, 16777216, 25165824, 1, 'pipelined-bcast', 't', '5cd257467b5dc4124ed5f7f22eff2b6e3dc246b80a01e388a0bda291f97ce005'),
    ('MVAPICH2', 'allgather', 65536): (0.0007425300000000003, 9437184, 9306112, 1, 'pipelined-allgather', 't', '9840b3f58fc5089661bced6442ff865050ff853a616e544109fa20bcca61b740'),
    ('MVAPICH2', 'allgather', 1048576): (0.011172584400000001, 150994944, 226492416, 1, 'pipelined-allgather', 't', 'e786dac0710d78d026065a982230763fc9cd5d3bd321f1cee80505a35f9155a3'),
    ('Open MPI', 'allreduce', 65536): (0.0001709868, 3342336, 1310720, 144, 'ompi-ar', 't', '307f92e85805748128db84833450ebd3ece792c6dc6ee9e4b25e97a8fe55f8a9'),
    ('Open MPI', 'allreduce', 1048576): (0.004373096800000001, 53477376, 53870592, 144, 'ompi-ar', 't', 'a173cbf6a3b2ece831a92b1b35159c9a3462ea73ece55e3f5efcd04e9e792237'),
    ('Open MPI', 'reduce', 65536): (0.0001379372, 2162688, 1114112, 7, 'rg-reduce', 't', '9a37e9d047c1499eb21e8837248675406ea4b6296bf29cd528c819d7eec5ce79'),
    ('Open MPI', 'reduce', 1048576): (0.0023944604, 34603008, 32112640, 98, 'rg-reduce', 't', '733513cacbf8d0ee20692e5a07cde81b1cfb40b1a969bf87006ab5119f8a2866'),
    ('Open MPI', 'reduce_scatter', 65536): (0.00010816600000000002, 2293760, 786432, 88, 'ompi-rs', 't', '393c4a4e4f317b816fb0c90db83a070f960248aae3afcfad10d790a94b69f11e'),
    ('Open MPI', 'reduce_scatter', 1048576): (0.0026011248000000005, 36700160, 33030144, 88, 'ompi-rs', 't', '0c59b2658fbd497c6433e6adb8309c773ded78dd2874069e4a2b0ead9f19f1fd'),
    ('Open MPI', 'bcast', 65536): (7.176240000000001e-05, 917504, 524288, 1, 'ompi-bc', 't', 'c2def7cebd14e2542339d3c94c5e765f02757b8517647a1d862699652f1690e6'),
    ('Open MPI', 'bcast', 1048576): (0.0012754136000000002, 14680064, 20971520, 1, 'ompi-bc', 't', '3aa4af893ff4d309effd9c14ad36f67081ae5d60d9dfb73fd489ae4dc26cbc14'),
    ('Open MPI', 'allgather', 65536): (0.0007472592000000002, 8388608, 7995392, 1, 'ompi-ag', 't', '28aa38ff06ebaaf32c8c72e397047e71cc6d3db30b8644c03ee2aff73d7b9718'),
    ('Open MPI', 'allgather', 1048576): (0.012862152000000002, 134217728, 201326592, 1, 'ompi-ag', 't', 'fabb128d7caf2165824e6352fde7fc011ee95e4d1e4169f31d3fef4c2f8f59ce'),
    ('XPMEM', 'allreduce', 65536): (0.00011047920000000002, 2293760, 1048576, 57, 'xpmem-allreduce', 't', '145b80c5d4326fe8093e8ca54701bd1cdcd957b7d2a6381d26bffc34fcfa8307'),
    ('XPMEM', 'allreduce', 1048576): (0.0018782224, 36700160, 26738688, 57, 'xpmem-allreduce', 't', '4e1cc72c90046c2918c56c12e1ab955faed54f0b0bb673d4070c06501f46513f'),
    ('XPMEM', 'reduce', 65536): (8.749160000000001e-05, 1507328, 655360, 9, 'xpmem-reduce', 't', '14a250e48078cd16a93ffb01d650ec626a686e6ec706a4b28b4bdc7d8f6b7e44'),
    ('XPMEM', 'reduce', 1048576): (0.0012820448000000003, 24117248, 12582912, 9, 'xpmem-reduce', 't', '4a9f64d1b1c091687dd8c0679e2da6492818fa2c3d305e4cead1a3001d8b78bb'),
    ('XPMEM', 'reduce_scatter', 65536): (6.645000000000002e-05, 1376256, 589824, 1, 'xpmem-reduce-scatter', 't', 'e16817780cd371c3f78725778bbb05b2c271b27fe2b9ec3e5c22d5af2911982b'),
    ('XPMEM', 'reduce_scatter', 1048576): (0.0008868788000000002, 22020096, 10223616, 1, 'xpmem-reduce-scatter', 't', 'b025164a70f776fe69338ad3084b9b53a85b75a96e154151120cfa88ab84d1d9'),
    ('XPMEM', 'bcast', 65536): (6.548240000000002e-05, 917504, 524288, 1, 'xpmem-bcast', 't', '13714553768fd60062079c40328d3a2066864e9d29b068617f2da385cc26df5b'),
    ('XPMEM', 'bcast', 1048576): (0.0011599336000000001, 14680064, 18612224, 1, 'xpmem-bcast', 't', '233cd1c2ef25969e4b91185fccfd745645a4ecea4afbb6d6e3fefb1a1de453fb'),
    ('XPMEM', 'allgather', 65536): (0.0007110743999999996, 8388608, 8159232, 1, 'xpmem-allgather', 't', 'c0ab9e868929bb181142b83b2875ab685575886d78f7a161ecbc0b7f6ea0c8bb'),
    ('XPMEM', 'allgather', 1048576): (0.008306696799999997, 134217728, 197525504, 1, 'xpmem-allgather', 't', '86d324e5d9f2c757e9b5ac2a4ff70ce772f72dc2d6720bdb33b46f5b1efbb90a'),
}


def test_sizes_straddle_the_switch():
    assert SIZES[0] <= SMALL_THRESHOLD < SIZES[1]


@pytest.mark.parametrize("impl,kind,nbytes", sorted(PINNED))
def test_facade_result_pinned(impl, kind, nbytes):
    comm = Communicator(8, machine=TINY, functional=False)
    lib = YHCCL(comm) if impl == "YHCCL" else MPILibrary(comm, impl)
    r = getattr(lib, kind)(nbytes)
    digest = hashlib.sha256(canonical_dumps(r.counters).encode()).hexdigest()
    got = (r.time, r.dav, r.memory_traffic, r.sync_count, r.algorithm,
           r.copy_policy, digest)
    assert got == PINNED[impl, kind, nbytes]
