"""Motion-field goldens: SHA-256 of ``estimate_motion`` output.

The inputs are the pairs the encoder really searches: the current
frame's luma and the encoder's reconstructed previous luma
(``VideoEncoder._recon_y``), for G1-G10 at two resolutions. Variants
cover other search radii, block sizes (including an odd block, where
the successive-elimination sub-block is the whole block), frame sizes
that are not a multiple of the block, and diamond search. All digests
were generated with the per-offset full search that preceded the
ring-batched one. Any change that moves a single motion vector fails
here; regenerate them only for a change that is *meant* to alter the
motion field, never to make a refactor pass.

The two tie tests pin the exact tie-break rule: among offsets with
equal SAD, the one visited first in nearest-first order wins, within a
ring (equal |dy| + |dx|) and across rings.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro.codec.color import rgb_to_ycbcr
from repro.codec.encoder import PIXEL_SCALE, VideoEncoder
from repro.codec.motion import estimate_motion
from repro.render.games import build_game

GAMES = tuple(f"G{i}" for i in range(1, 11))
RESOLUTIONS = ((112, 64), (224, 128))  # (width, height)
#: Frames fed to the encoder: the first is the I-frame, each later one is
#: searched against the reconstruction of the one before (17 follows 1,
#: so one pair carries large motion).
ENC_FRAMES = (0, 1, 17, 18)


@lru_cache(maxsize=None)
def _encoder_pairs(game_id: str, width: int, height: int):
    """(current luma, encoder reference luma) for each P-frame of ENC_FRAMES."""
    game = build_game(game_id)
    encoder = VideoEncoder(gop_size=60)
    pairs = []
    for frame in ENC_FRAMES:
        rgb = game.render_frame(frame, width, height).color
        if encoder._recon_y is not None:
            y, _, _ = rgb_to_ycbcr(np.asarray(rgb, dtype=np.float64))
            pairs.append((y * PIXEL_SCALE - 128.0, encoder._recon_y.copy()))
        encoder.encode_frame(rgb)
    return tuple(pairs)


def _digest(mv: np.ndarray) -> str:
    h = hashlib.sha256(repr(mv.shape).encode())
    h.update(np.ascontiguousarray(mv, dtype=np.int64).tobytes())
    return h.hexdigest()


#: (game, width, height) -> one digest per P-frame pair (block 8, radius 7,
#: full search: the encoder default).
GOLDEN = {
    ("G1", 112, 64): (
        "cad17a15fb449f691bf0108e651b387dc0dc0a6f59edf5d67203093756d473fa",
        "03ad5cc86940114649741ed75ad8945d4f450ab8402a7be3d79dcc112deee353",
        "3260ee756cce0ff5d33b77cfff5a99e3e0f8c97d3411eddbe64c5e2ada934405",
    ),
    ("G1", 224, 128): (
        "510ac37dbf938294bd4a340b7b1fda1a9cc171231cb921f513d9dab9730ca3ab",
        "d113b8b8d2e683f34f50931d82a5f648af82f940473534c05eed5645c0db7a6f",
        "b49ff9b83231a78e8d0225d4bb25e3d22e89dba3173fa7e260bb1417e2ec074e",
    ),
    ("G2", 112, 64): (
        "bdef1086334b7bd1d27905f314da91c2ca7fdcad30b52deb8aaba2c0433b0f06",
        "d88d548325d7095814405dfef787adf8dabc69f91c67a238164b978b18763027",
        "75cd746fb12f3b22ff0a4181491d000e7e2ab3936f6fe4bb067396e788ce9c05",
    ),
    ("G2", 224, 128): (
        "6056dff5f40d7b8cb3be5101970e753e12268298aeb3353a58a6f94111046778",
        "077c68ec26b83306cf1eececce3400a63f4b02b1098290d1516a1dd09ad07e57",
        "cdae12018e923d025a25f65360ed0139ff9e424881bc5f0e3a109c5ac13b178d",
    ),
    ("G3", 112, 64): (
        "2894e5bdd134c099d8948fc67ec7fcc2fcb6c16a1b0edb38b36b6bb1c6728693",
        "a8b5df3964e6cbf7c2cd2e44737278855d5baacc5c36b492c483fb991066c707",
        "82604f88e5a0cfbe1f04e893dcf66c4de674ed0ecccaca17a443b93d681afacb",
    ),
    ("G3", 224, 128): (
        "8e8eaea8c69eee8dcb20048dce1434a030d81c875571764db7cc2166a1641141",
        "01033b41aefd200d8b10c6ee2d51cf0b431177d8ca45a615332cda2229fef5a5",
        "0cefb916b000a20749d24bf6e524cf670bf10c6d87cdb82f6a830c8bc78fb0d3",
    ),
    ("G4", 112, 64): (
        "d1caecc1d310c3d09a7d6f27dcfda98c5a89b9db9471c6923a7f1d1e12f56de6",
        "98e922dca8ce7ef3cc7847e4a4613f26e7373c57baed35d71b91af1adbe47829",
        "8c6a5d43638a8fac02281a29c66831189cf602b0dcf12d07b3aed7e7104f4c44",
    ),
    ("G4", 224, 128): (
        "fbe447ce32d32a79664fc80a00bf2dcdbcb4b7433e89d617f8cdfcf3b32dc149",
        "c687d58abf61cfc2e728b5022ca3a5092fbc80e571747013413d4ccaa00d4aa1",
        "1cb08c66e411148c5ec3367a205dcc39c26dc449cfdd47aacc1eb44f25af89f8",
    ),
    ("G5", 112, 64): (
        "18f0970298196f17c942c2272bfaa3a878777d2231f3b5012ac6552b9bf1b713",
        "f71771d5313577a7527a5d251501d6c9b09c767c17c13d9cba144b7f982ce82d",
        "06747f987b1891c67cf7991b68eaac36695c1d11438abd701c6a7d95133d0a07",
    ),
    ("G5", 224, 128): (
        "6ba3e64767eeefdff721ea21f733b2964e96dcc50b1c79a9e153c037ff26548e",
        "ab33f6c3bb68e6e20b9713a2cd13ebc667adcb04663c0914bf66f1e8368f9db1",
        "f1206f07a0297a7fdeef985029f5a75922444eddfee45f49b22a6d2ec340de66",
    ),
    ("G6", 112, 64): (
        "ccc7a15486b901d961459e99dc2238a72d099305c522daa8d9c720429034d864",
        "6eb77d1dafad69fb4cae645c026e3f770558fa62e4ccf87aebef76f70220a625",
        "5af9f8ec649bc26f166a5810bca81a2040fa132122ce89b077bbe83a8b2e9cbc",
    ),
    ("G6", 224, 128): (
        "4c0afa12f02e283d8a51b79d9262e10202b709661092b381e5f0df22178db9db",
        "d27f6d54b94ee51acf5d7261e05c6214bf98481e5c252590936d2a0b946ff7f9",
        "a363fb4c56ca053db271c16762dfeca5e70bcc333978d5faef414edf1885672b",
    ),
    ("G7", 112, 64): (
        "2959ac27903bcd4bb56f9edc2f05dd621ee45dfafdf072373f5ec103c060c9c5",
        "caf230baace20f7b718b587d9ad439fa5de121b9ac10a80481d1113a74465d8f",
        "a6e0bbb8f51ad312c76857bc5fb29c95ac19e2f185fa9ae03e150bb0677a765d",
    ),
    ("G7", 224, 128): (
        "c7757697d145b367e9e3a779ec0b34f7511bed4689ee23ff39152dc946228c51",
        "cd6ada9f90a2a9b1f41fbe367978d3f839765d5f1aceca72c06ec23506f13d1a",
        "93e83a30cfc6dd96e5431513b837f4c38cbb2219d5da1f188f13cdb376747c0a",
    ),
    ("G8", 112, 64): (
        "e558104ca5c8a3f6518b5da60bf072daae174625b9fd7a4ab4644ff46abe57d9",
        "c323a2bc7ba6595c83eb5b44ab07c94eeb64927487b65ca9fbaf06e3e7b57088",
        "cfa117bab017867d5afc7e2fcb77b3889c63faf860783c57aac6dc9e39dc2f4e",
    ),
    ("G8", 224, 128): (
        "595c8d88404feb60502e04ef7807a3e6800e0dc7bf1874bb8a072922a2942008",
        "3b5dad9a093471ba9ea6d73e894f1953b9ae604909bf515e15c30a4e759fb667",
        "8ba7d3a7de54b105de78dee83cd168ddcdfbf5f180c599a369fc96f8b3e1a91a",
    ),
    ("G9", 112, 64): (
        "bcda25aee824e1af0b3778cf237c323a45a4450e7f47bf8532c7dd550ae2dd1c",
        "59f071ade2411afe53a7ba53fddb8f60d2d1cd9fd1de82dafbc4c921ad90d5fc",
        "a39f5530ea4982807ca1133e33ced43d3dae7a308ceabc43976f423a750c0874",
    ),
    ("G9", 224, 128): (
        "5f7dd07b93a86baf22b53cffe310b90153e33a40f59b4d129908db89d1756dc7",
        "dd95d830cc42338928d44487f933f62aa5641b6e9a1d0c8af1283f1c16fe530e",
        "12fcd5c70f47618b3c46a12446f506d217ab5de6120dcbb40e7a2399088ca2f8",
    ),
    ("G10", 112, 64): (
        "a4c7285df5381e12e404b8427826f47be831e4ef53eec94bc3314b9b30c57e2d",
        "c22790d23d85a1cf82fce8734669352d46f085d7479ec6561abcecb235baaec5",
        "34aa4f0d772d740c9feed122e9c4e3e43cfba0cf688ed713d68bf36062a56bfb",
    ),
    ("G10", 224, 128): (
        "dda3c4387c7eb1c9e1ad4bdfb8d0aeeab72ec5ca0beae258981353e121722f1a",
        "a1994f20dd947bfc75aac19c10922d2490da85c1b698915977e159db89f1919f",
        "31389e76891319108fb2d9e7db199b262f5230b8ea30c31bb9010947f01eda44",
    ),
}

#: name -> (game, width, height, crop (h, w) or None, block, radius, method,
#: one digest per P-frame pair).
VARIANTS = {
    "G3-112x64-r0": (
        "G3", 112, 64, None, 8, 0, "full",
        (
            "4d6d9abafce347e94b71635e84986118fc1e83b81fd537f4e0fa6a7675383558",
            "4d6d9abafce347e94b71635e84986118fc1e83b81fd537f4e0fa6a7675383558",
            "4d6d9abafce347e94b71635e84986118fc1e83b81fd537f4e0fa6a7675383558",
        ),
    ),
    "G3-112x64-r3": (
        "G3", 112, 64, None, 8, 3, "full",
        (
            "a0e4d0367fe2ff324ae6cbdc48e0874a5e97cab51d165c09131ad882f8cc3ce4",
            "7d50438104dfebc49c767c6595205dc3386f49af48154d2bccdeff4b845745d5",
            "1b4ac7f13c464bb60e0be6931b36c196c66f1b60c97f152c18ecbdeeed3328f1",
        ),
    ),
    "G7-224x128-r3": (
        "G7", 224, 128, None, 8, 3, "full",
        (
            "5a6b90be6f29177904dd06844c06f99d9f0ee859f29aecede497d61c8e3ff7f7",
            "3ff8c24de8fa399da53e9f9bf4f425266e26cd506c874e0825a4b32cd72111f6",
            "cd065879b9748d0607d8a01cd9271d1f10c5ebdb91d5d046969598451bc108ef",
        ),
    ),
    "G3-112x64-b4": (
        "G3", 112, 64, None, 4, 7, "full",
        (
            "965622dfcb25eaad3ac5441af9625f18b54e7a7be49e1e0e8480e832cc6b11f3",
            "a5ff51af3421eb1bd477398f54f9bf858ff89b71be9de34f9c01676880ff24f8",
            "075a7de4f57d70d9663ca6072744050986bf7d35b0a8eca522441b64fc1905eb",
        ),
    ),
    "G3-112x64-b5": (
        "G3", 112, 64, None, 5, 7, "full",
        (
            "00f089e0f4a9d00e36a390ce332e25c6e8c8741530d16065c95af4703ef93358",
            "0fec4a062b558a077c9a78756cd4ed74e4892a380673840c5db5b7fc15cacf85",
            "8d19c1859ad2396713207832a02daceaf9015b2b897437ceba8d0272c6d84bdb",
        ),
    ),
    "G3-112x64-b6": (
        "G3", 112, 64, None, 6, 7, "full",
        (
            "ba17fc49aa3d04ef8d9f6471b0835a696d3ad8242b879d2c3f0bb0bdea6df9ed",
            "c8bf20388b7446e326e61bb0c786148e4a09db8f3ebca4ced5335a3e71b2e874",
            "72332a19f322e9e3132adc0b222f508f2557e9e8c18f8179522bd9ab25e6660f",
        ),
    ),
    "G9-224x128-b4-r3": (
        "G9", 224, 128, None, 4, 3, "full",
        (
            "24f4547130f8df3039ab046b126d50837eb6b3aa6086ebf8502c31c16bcfee0e",
            "64eefd1e6854897c3c519aa00b46224c3456a6cf447ed63c6ffc6a2f9968743d",
            "68226224948ed0ad0f1f886ed03a69824419c674fa36b8ce5f80bed54db61411",
        ),
    ),
    "G5-100x60-b8": (
        "G5", 100, 60, None, 8, 7, "full",
        (
            "7acc6b26d06f146042ed168697b9f80ab91d1b2161308abd481bbd407819f982",
            "241626c6c8f8b6ba5d48983b9ee7a4e66ab5254aa3f413f1f5679ff201580ae5",
            "5e76a0246aa6c3324ae5b2be070249d6c9fe73d578e62c0d5f69c2812b83d35d",
        ),
    ),
    "G3-crop61x107-b8": (
        "G3", 112, 64, (61, 107), 8, 7, "full",
        (
            "7ecfccbf1531b1f25475327a6c41c3848d933ae9d4ac466aae48c47ac9f11476",
            "4523c577822dc07db298de559f83a3a2c03352bb1a3731729412ca8c04afb416",
            "6b5c181851835355c0a8e0f3d142e1055d388b7a9df21edce851c7e323fbc7d5",
        ),
    ),
    "G3-crop61x107-b5": (
        "G3", 112, 64, (61, 107), 5, 7, "full",
        (
            "5ba99f818c835c03e2e30d5952b3341de5314f37920944166e20dcdbd21ddd99",
            "053b62f83404de385805ca90c3cb61dc736dc49967522d59f03d380e78b295da",
            "3ed384d0f17a1a4133cf5992f7ff9ff56566832e3e9c585a647f6e95fff985da",
        ),
    ),
    "G3-crop61x107-b4-r3": (
        "G3", 112, 64, (61, 107), 4, 3, "full",
        (
            "a547139ecd6326234b0ccba1e1ee48a1a0217eabc66b3da2758350994d13d097",
            "af477823035045397eda4d99c4c7d8f73f6ec22ffee4e3f9a9ff35f3c0739f63",
            "b58f63d2226b154160ebbff441711a019f5ff7c32b434965b3725ab5eaf28611",
        ),
    ),
    "G3-112x64-diamond": (
        "G3", 112, 64, None, 8, 7, "diamond",
        (
            "450836b982926103e6c0c71386b6762a7f62e9daf2cbb7b568aaac5eaad745a3",
            "c2edcf8afb7d7a2a21359436480b457a5faa111ed0d5e5c457e4ae0df5799b89",
            "42b099590ace3ebcb1d64d06b3309067f7d9a03668b213cce5f0717f883d1f9c",
        ),
    ),
    "G7-224x128-diamond": (
        "G7", 224, 128, None, 8, 7, "diamond",
        (
            "765faebddfc4bdf9abab9dd71fc59bfd7f40fddc8371242bbbfeec88b7a7e13f",
            "45fcf1b383e49cddf29d71f6d68998d8923c26fb8966be8e5934a7ebd8ef5a3a",
            "17e28164341c86e95576063d3811aa43eeb36a3e931ca1c04522f19a9389a559",
        ),
    ),
    "G3-crop61x107-diamond-b4-r3": (
        "G3", 112, 64, (61, 107), 4, 3, "diamond",
        (
            "781f08a2c8009ed97483a3f4617231bf0d3319e3cf3b7e3260cc6eb56eb0800e",
            "e20d9b502ecddefff423c3751d2f3b71fe6e7aba14cc8214eab561f8ef500b14",
            "51bb1890fde1f50ee83ec5cf23a6e5deb91f8a3872dcee43049226a876e20b79",
        ),
    ),
}


def test_golden_table_complete():
    assert set(GOLDEN) == {(g, w, h) for g in GAMES for (w, h) in RESOLUTIONS}
    assert all(len(d) == len(ENC_FRAMES) - 1 for d in GOLDEN.values())


@pytest.mark.parametrize("width,height", RESOLUTIONS)
@pytest.mark.parametrize("game_id", GAMES)
def test_full_search_matches_golden(game_id, width, height):
    digests = tuple(
        _digest(estimate_motion(cur, ref))
        for cur, ref in _encoder_pairs(game_id, width, height)
    )
    assert digests == GOLDEN[(game_id, width, height)]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_matches_golden(name):
    game_id, width, height, crop, block, radius, method, expected = VARIANTS[name]
    digests = []
    for cur, ref in _encoder_pairs(game_id, width, height):
        if crop is not None:
            cur, ref = cur[: crop[0], : crop[1]], ref[: crop[0], : crop[1]]
        mv = estimate_motion(cur, ref, block=block, search_radius=radius, method=method)
        digests.append(_digest(mv))
    assert tuple(digests) == expected


def _centre_mv(cur: np.ndarray, ref: np.ndarray, radius: int) -> tuple[int, int]:
    """Motion vector of the centre block of a 3x3 grid of 8x8 blocks."""
    mv = estimate_motion(cur, ref, block=8, search_radius=radius)
    return tuple(int(v) for v in mv[1, 1])


def test_tie_within_ring_keeps_first_visited(rng):
    # Constant along anti-diagonals: the window at (dy, dx) depends only on
    # dy + dx, so (0, 1) and (1, 0) -- both in ring 1 -- give the same SAD.
    f = rng.integers(0, 256, size=64).astype(np.float64) * 7.0
    yy, xx = np.mgrid[0:24, 0:24]
    ref = f[yy + xx]
    cur = ref.copy()
    cur[8:16, 8:16] = ref[8:16, 9:17] + 1.0  # SAD 64 at both tied offsets
    assert np.array_equal(ref[9:17, 8:16], ref[8:16, 9:17])
    assert _centre_mv(cur, ref, radius=1) == (0, 1)
    assert _centre_mv(cur, ref, radius=3) == (0, 1)


def test_tie_across_rings_keeps_nearest(rng):
    # Periodic in x with period 3: the window at (1, 0) (ring 1) equals the
    # ones at (1, -3) and (1, 3) (ring 4), so all three tie on SAD.
    tile = rng.integers(0, 256, size=(24, 3)).astype(np.float64) * 5.0
    ref = np.tile(tile, (1, 8))
    cur = ref.copy()
    cur[8:16, 8:16] = ref[9:17, 8:16] + 2.0  # SAD 128 at the tied offsets
    assert np.array_equal(ref[9:17, 5:13], ref[9:17, 8:16])
    assert np.array_equal(ref[9:17, 11:19], ref[9:17, 8:16])
    assert _centre_mv(cur, ref, radius=4) == (1, 0)
    assert _centre_mv(cur, ref, radius=7) == (1, 0)
