"""Byte-level render goldens: SHA-256 of color and depth buffers.

The digests pin the rasterizer's exact output (``tobytes()`` of the
float64 color and depth arrays) for G1-G10 at four frames and two
resolutions, and for 32 seeded triangle-soup stress scenes. All were
generated with the per-triangle rasterizer that preceded the deferred
one. Any change to visibility, interpolation or shading order that
moves a single bit fails here. Regenerate them only for a change that
is *meant* to alter rendered pixels, never to make a refactor pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.render.games import build_game
from repro.render.math3d import translation
from repro.render.mesh import Mesh, plane
from repro.render.rasterizer import render
from repro.render.shading import DirectionalLight, Material

FRAMES = (0, 17, 31, 59)
RESOLUTIONS = ((112, 64), (224, 128))  # (width, height)
GAMES = tuple(f"G{i}" for i in range(1, 11))

#: (game, width, height, frame) -> (sha256(color), sha256(depth)).
GOLDEN = {
    ("G1", 112, 64, 0): (
        "ce25ea6625cd6bba28333ae24da3f899d795f5b676b3a469b2da368de11dc9b6",
        "d5ef0ff0c1f08fde9a4cb976f2dbee10b932471dba3b05f83882e2934f8beedb",
    ),
    ("G1", 112, 64, 17): (
        "69b57061d3f3213d42c382c36d19821fdf3ab2a28b0cb1f1ccec0dda85a228c8",
        "64f563b0684f736702bf92045159eba90131a1c81ab1da66c4c04ce090f4a465",
    ),
    ("G1", 112, 64, 31): (
        "8bca73226de4eea312b1cfb3034aa20382c73d85b8574a81872c3b257433caed",
        "2865d5b8aa1ccf852bd0dfeb3824dfd6f567b1e4d1ecb4563fa50e52017ed093",
    ),
    ("G1", 112, 64, 59): (
        "e249764435abf5e4e5aa2f11f939cb2c41b2d7e50467733d12db14a3c8b59b2e",
        "604b028bb339d9005acf80c4e7d1b40bc5302d5da7a71b7a9b053084f31b46ad",
    ),
    ("G2", 112, 64, 0): (
        "fb276b804b7a109984b5063e33552a36b933f09ec57024589a0558ee95d68721",
        "3510e4fd4ee75535bd0682b806e5364f737bcf1e545512cf2a4118be9e2c9cd9",
    ),
    ("G2", 112, 64, 17): (
        "d8e9a89b70b8f5d7de424d4e8e3496d2ec72b35826d300662f8d317e65e83be0",
        "317deee2adbfef93b4dee5f8f363fad061b1f9a5540baa01a83393d3da5d7ecf",
    ),
    ("G2", 112, 64, 31): (
        "7a3fbfae7b5df744ace9bf6d59bbdf95acb42e00b6abb57c8ed28040a3b47021",
        "75deb146f13d5679301c934a923a2458fbab8af080fc05b499ff9e394c6f8830",
    ),
    ("G2", 112, 64, 59): (
        "6057cfaff3e5c4d6bc283deb795b819c42d83d08bca9d07501d1b8aa50ff79c4",
        "46678afec7044c3eeba20c799396baec1ade2a7c775c6d4caf7c9408045ef6b5",
    ),
    ("G3", 112, 64, 0): (
        "1c589d4abed0b35fe17e05232522b179f56336fc864dc341d41742612b726db7",
        "e3738212f4c708ba7d45cb75afeed62ae07c398bd07593328e8a0743300141eb",
    ),
    ("G3", 112, 64, 17): (
        "7494feaf114692769474ca5bbd0304aabed141fcdeb135e0b6939ba1e8a7a0df",
        "ef88c50978d93cb5e734ea8f528866d883054d956ad4b98f26815f60425f5143",
    ),
    ("G3", 112, 64, 31): (
        "b45e7216e0837cf0137c8fa9f5b1dede330efee5be09a79f41dd76195370d82c",
        "332ca69442e1f1e5ed93bb9bb8d8ef16719fb6d32800b49a9353dbca1dc2916b",
    ),
    ("G3", 112, 64, 59): (
        "79a59c912c9a9bb140008936b12d1d6f9c0c883d2a818dd867d3de973215468d",
        "91d9abf44cfc271f41830b0988a9b17ba3e99d6926a372fe35d2fb759ee8bd29",
    ),
    ("G4", 112, 64, 0): (
        "9d5feb537200fe5f444ec05f5b04df8b65ce8822ade85326c455e353a1954a86",
        "cfaa351cc5476e68b79669fdcc80d124fcb0861592016e3e5874f830de1b2826",
    ),
    ("G4", 112, 64, 17): (
        "352cdacbde94c65391ef7b0956869bc2e44a4d4747e4768afc557672ca7221ce",
        "863b61b19c04f4aa5ef594dc5900fb9c4d3c94dee8ed5accdac9a0fe854a332e",
    ),
    ("G4", 112, 64, 31): (
        "b16d9128d4ee44cc2afb49ae132f3baa32aef1c14a6101b1e5fcddfb327b3211",
        "af9f31d4543f62029f6251ae2a5a2ea9301f420866b0476b7984215da64eb557",
    ),
    ("G4", 112, 64, 59): (
        "5b75a202c9bd0ab4638a382e6c10b927e7537c195625c696964413e722b84160",
        "63031cdb411400885f78ec86fca379c8deab9fb9763655357b913d8a405d5e1c",
    ),
    ("G5", 112, 64, 0): (
        "a17a829d21a2d1c18bb48b296ad2ce67ce9f55d7231d3ba5ec25ae479428e5c3",
        "41620b888a782f366a8e446af1fbfabb844fd29ac503a1f4eed073bb676e618a",
    ),
    ("G5", 112, 64, 17): (
        "ec42eebcb67161e5ab7173d8b88b93da2c394193932656462f53edd4f9575823",
        "88b096cf31e9091c7167bfd1fea028b4c13f100141dd316c7d467969196e8c8b",
    ),
    ("G5", 112, 64, 31): (
        "ce8db711e5021fd6c07541b75a9ac066405efc757ff35d28bdef97a71772c50c",
        "d8c62556a61ebcf5eaad1cbae62294b6c0aec42ded4cdf29ab551e64009106de",
    ),
    ("G5", 112, 64, 59): (
        "f9838888dcab8587ba99838307799ebe189371baebc58ef7c4515be10dd18feb",
        "9838a16033b369af3e9b05b96a0cc3da860e1acd532a96af936f4f673da2d9e0",
    ),
    ("G6", 112, 64, 0): (
        "77f154114b7e324999dd09b3f2f5f9cdb8a0d812062ebbad8e94f450134b1e06",
        "7ce903b89966a4ed517d327e6ffc836563d3ec4fe36f5264c23bf5d5e651f032",
    ),
    ("G6", 112, 64, 17): (
        "37770efd01298009309adccf0a7a30b2036ded532082e62a1b7026e964187d40",
        "76c6f2683aa5ea6f4c7cdb8a1bfbde501a91f1db08cd3e779cadbd5524e6aaf1",
    ),
    ("G6", 112, 64, 31): (
        "7317c990e10b0b2432af8edd1c3140011db7504b2263018be6876a6446096449",
        "bac911b4a55541494e1be596b387f5f22b4bcf06a72cc9312d80e20c1dee629c",
    ),
    ("G6", 112, 64, 59): (
        "092977c72c4fe9c361274814c6fc95041b6f1a18120b637d3cdc9e67a801578a",
        "b89fb701e1487bb2ab9caf30f2331ef43b3aa2eddc1f53058ddf1e6336b5f0e9",
    ),
    ("G7", 112, 64, 0): (
        "371898edbd4a839658f6a9e47b61e3398ca35cb368fae5583cce8a987f9b0c1f",
        "15ad352dd38b146975b094c9bca263681a56cafe9e242a444a95e781593cf428",
    ),
    ("G7", 112, 64, 17): (
        "82ba7568473c01df0979373b97b2003741f75601170e53496db70990e00bcc17",
        "ffa75c3e985af8cc3102b254cbadbfbb33901cca77b35c191caf83606d21fc37",
    ),
    ("G7", 112, 64, 31): (
        "93cbe10c5b4504c346f8bc22022a6c017528145feed96b7f3ce4e2a809b76a7c",
        "339d967fb17b5433905c1c69c48d4e5f59fa06da16449a1e17e0248649f66282",
    ),
    ("G7", 112, 64, 59): (
        "249ac31588382673c08c0cac1987fed20f984df00be742d198c4ae2880bae4db",
        "f7df8e035067f9bb077c1bb233f272cb79aadff2c7d15b19afc8fd9077269d11",
    ),
    ("G8", 112, 64, 0): (
        "e597bd0cf0b69c6bec70bdf689f177d0cf1d7eea7d839b063fc6e2cac35025fc",
        "6ed669685d4311854c54ee83644d2af0c3aa26c348671ea49b16d338da78a3ea",
    ),
    ("G8", 112, 64, 17): (
        "5413dec7297f954502776fae8a21c2998eb19bb10f8ea13f23171ca44445d356",
        "e49296817c2e909c6f221112bdbab835ed88ba58fd76174dd72a7abb7a006358",
    ),
    ("G8", 112, 64, 31): (
        "bbc73f4d665e7dff602f4048c998ddd9c900bf28ecbc74387cef4491d72d156e",
        "ef1e0fe911db2a7c2de63d6ea4756be20577a21c7d3dd07552298e4ccd5cf6f3",
    ),
    ("G8", 112, 64, 59): (
        "8b65db0fd68dce7a909c8f1283b48b18f0e8d3476535385855174848aadb4d5b",
        "5f230cfa6f7597207271ac093cab3584e142809f0acb70852460be87f457f2fb",
    ),
    ("G9", 112, 64, 0): (
        "06bcd53ab689f742c56a42ea7dd3911c7d70b0b644507243ef8a59e00f7e1af6",
        "44d02d6bfc4c29492a1f8bd0b38c7d4bf9db1f2f086c1d89a705ee9a8b8f7ccd",
    ),
    ("G9", 112, 64, 17): (
        "c7826c9d1e7694c106cfa2c967c8ef06b8a6ad3669b8f6db03f1360d54fe67f8",
        "d4eea24eadab56356019b855e61a21647234704208a341db7ad2d0f918ef7d85",
    ),
    ("G9", 112, 64, 31): (
        "0186f2a11a27b168ce21a610d887642758fd9733d8b1710d5d11f2d8b6f0d658",
        "291442ac30626614025a8b93a94f3df8a365c0ad7cad6858de1b604c70d42ba8",
    ),
    ("G9", 112, 64, 59): (
        "ee4bff197ea404fa9c38d64457b674653d401550763975e59d67f2b8fc76e225",
        "a9a7018a6eff6da064b44eb3e3f3761a02defd2c55a290eadd35c559ab5422e8",
    ),
    ("G10", 112, 64, 0): (
        "bd210fd0cdc71445a5e756a9c630f6fe9509fa55c37c842713068daf486f3970",
        "e0d10adcd317009b1ac0df33065f3ff45d0af96ff6af148f10021bb88e099147",
    ),
    ("G10", 112, 64, 17): (
        "d5adc34fbb550bec89af71934764550aee52743bca1ab7a53dbc744f1924b1ba",
        "3b08ef57f350ba828eaeb822478b0a7038ee4091fb3b451a27425b6417b9b074",
    ),
    ("G10", 112, 64, 31): (
        "7eaa156e19c4ceb7cd0d609c03f8db0628dadea73dcc1dea143691cff5e7e639",
        "be2f48f5f5228f2ca5a2f1d96fc61222d50615ea0d6f1b3aec31c9e8f3864282",
    ),
    ("G10", 112, 64, 59): (
        "5f9657d009ea665fbff1320d52db61d6a31e081e667d82dd65784916202fd765",
        "621daffca9878795d46a5bab6ad149cd6b768c7ea3d2bdbcb2ac12b7eaa5b8cc",
    ),
    ("G1", 224, 128, 0): (
        "2e9278854779821b901d646b473092dcfc72d049c7c23759fdb51ae4dd183247",
        "df4541875148f208c1027eb6580bf850d567644a30d570762d0f7670b3dbae23",
    ),
    ("G1", 224, 128, 17): (
        "1d7343ee62a8d49fee2ff153a2da6856bcc51ed003d09d07a482ea00bc4231d7",
        "0f2f397141e4243f01f003920ee015cfb8859a6693c24ab794e074a31a360763",
    ),
    ("G1", 224, 128, 31): (
        "37c560a025e807b4af5d3061c084e8521bf3dff67bc9f817b25846c116e63503",
        "483db9d1c6fda761c9290a8f9f39d4165b196e9312f3fcfb3a1c737d000c18d3",
    ),
    ("G1", 224, 128, 59): (
        "b62335f34574cedabdc43c4586fc1532085929b28999942482092e72e4cc81a8",
        "d10c41f59c51fcf8602bb4c923a19ab919287cd6c10e30c2cc36ca7b7ed89dcf",
    ),
    ("G2", 224, 128, 0): (
        "3adb3cb31b0195e9c92bc3bd5915cdeffeb99908b6b02a7de1e85672b112caae",
        "fbffd581217eebcd90fa1afaf9c9c512987009c8fdffada952a55cbb90b1a132",
    ),
    ("G2", 224, 128, 17): (
        "636d5bdff336fa1fd5f016f546c315b5879b2933bcc9c21089c0685f0bfc8e31",
        "ee0884ccb578650364b249e5a338f1d475a747c55c172694142cb7153d3382ee",
    ),
    ("G2", 224, 128, 31): (
        "86a080694a9c1de04944e3566bd16248080ed178db1468e578da0663129a1485",
        "c80870fd9e78cbbb01824e6fa31b99e3625b65687501dfc422b8f9a8d211e7d2",
    ),
    ("G2", 224, 128, 59): (
        "131281d9e921b7777defbf08fb157dedc0acda0cfa13add16b23eba3fd4e450b",
        "d296093b85c7f47645cdba936e2dd04beccad506e7008c6765df66d96821f209",
    ),
    ("G3", 224, 128, 0): (
        "d11df640906e1371428806801d977d3fdaaf84cdaa23ca05d9ff4b02e10cceb6",
        "0854758a4df64f99052e64e785622fbb1a2abbe4b2b0b2b61eb20128c2549f62",
    ),
    ("G3", 224, 128, 17): (
        "012d68e991c05541d705ca652819d17c24f660c4cb2290befb793bf526d8134c",
        "79b5f24a26a9c428bb259ca1a4f505cfac4c1321d7fd1d8f795542fdab3e1815",
    ),
    ("G3", 224, 128, 31): (
        "9b583b6f8059c06643b0f158cc1863ddc2f97310c5f025c4217f9a2881287184",
        "1c4bbec25eec212bf608fc45e8b64cce496d041ef44a9618275593822bf5f1b3",
    ),
    ("G3", 224, 128, 59): (
        "4a99c119747409fe1c87f77f49ae61fb3f1d99742728d98760e9297847b9f689",
        "b59a6ee9f090432af7fb702527d8d53f98027c64feb51c7282b2c1619a850cd4",
    ),
    ("G4", 224, 128, 0): (
        "17a01ae4231ac38818d59563179edd8ddadf82965c0b05fbe2cb34e3605793a7",
        "1963dc1dea5b550e87528c3c6da661976f24b26336f8a0ad5f66efee7106fde2",
    ),
    ("G4", 224, 128, 17): (
        "541dd7c57b49a54f65a195d33609e3df7eb79ccfdcff21c3a5e78f03e040c3e5",
        "b2258e3845d9e11829f6b59ef488f23d1ac0a48db45dd2da9c5bfa1c9fe71dab",
    ),
    ("G4", 224, 128, 31): (
        "7be5886f96410d1fb0b7a98cd201d16ff2521ba8291affb51ab554f1467e1b08",
        "0f4553ca1c78976d924bb1771cb346b88c21515a03f41e8cc00e6da8ed545912",
    ),
    ("G4", 224, 128, 59): (
        "74d4657cbbed0b5452d4899ad74c6ae4ffd459c5ad12e4881b435a283263e984",
        "11fd5952b3ccc8e67e1cf95fe3aa2cb3d0dd242e2414b4e094964630fb9c0dbe",
    ),
    ("G5", 224, 128, 0): (
        "42c9dfea2a9385a760353a9f1c8dfe2255bac8980c87a2fa5b0cfecf92410b43",
        "bccc818d413479abd55d14f7aa8e950153e1eaa6753b8bad38287b5bdac87e59",
    ),
    ("G5", 224, 128, 17): (
        "30a2eeb944d3ff699a523a15eec4bb24a979c5b4bc48f35dd002d9267f650e14",
        "4316f15056694db059f125406331620f3b51ac0d44fe7bc2a656c180ad0be5b0",
    ),
    ("G5", 224, 128, 31): (
        "4f4bb92ea36fae8c8a2dee465070116b179c4290c4df0f039575d417e575dd08",
        "c5c39a538a5919aa859b4ebf038b8176293e3ff738774f43b53fa9cccc626ca5",
    ),
    ("G5", 224, 128, 59): (
        "379d67634eabb8c7f566cedda3faca0efafabec99a69b98ed96b63849e3531a9",
        "5240bc82578de56fdb18896d418781b08a7f47b4eb2017a7d5eac125be1681bd",
    ),
    ("G6", 224, 128, 0): (
        "fb0ef43931a052b9ec8249737a0d6a9ab17b48a02d18b3a6baa6f7d6cc9af202",
        "cbb86ebc785e7ac95507917aef108d6954889fdfd08a243ece8ca46acd26303e",
    ),
    ("G6", 224, 128, 17): (
        "9389f02bd0c5d859b8721329dbc89182d2147be62f1ef7d00865ff968cd991b8",
        "c5196f2489eae52a5b9421dd56753396c298af7c161a1f20e708e13937c73e3f",
    ),
    ("G6", 224, 128, 31): (
        "413522839c530e09a944da3b77aea1aaa4b5ab7babe705a29315b281d6ed0bd9",
        "6918ecac035f2a42bac6fae71bf7b4bbf49d3879c9bd36f19bbcb5496924d346",
    ),
    ("G6", 224, 128, 59): (
        "1342a2997066179feb13669bde2f03b66c9914055cecebb2ebc7f0a226f02f52",
        "d0a2aa798a39f0ce84cb73c6f816e15d18e750188df64013449dcf4599b414e1",
    ),
    ("G7", 224, 128, 0): (
        "0453149dc346dc731173d8084f42ca0422b63b2dfaa8b89f6974292d75b49057",
        "3d2cf3210445e3de818cb2148e584cf323d31cd6f962e6b07568170eb7b13ad7",
    ),
    ("G7", 224, 128, 17): (
        "22947e440db16e035f1973c5f8833c540a2521a4c965cc26c0f3d16511c23aab",
        "9b0514cebb3d9156340a383a584c98608d0529e530e2b4a846e204e8bd2e5f7b",
    ),
    ("G7", 224, 128, 31): (
        "e745a7232965ee06eb0335332165910d20afcd3416cba291f16fc0b7b63b9a88",
        "c3e6d5da98a57e3280269e7ac2c4872f38cb025528c64a7d3d5ec1febb5bb10a",
    ),
    ("G7", 224, 128, 59): (
        "abddbf6bf3f35cb4a235ff66827644dc68865fe03bdd40935f78a86eccf73c9a",
        "3ef235b2aa105925219a76dbb50b37ba29b8efcc0f9bd031eaa16e060c1c86c5",
    ),
    ("G8", 224, 128, 0): (
        "ec7ed7da20e5f6bd76de86e2cbf985e21ccd2832f811760a2a6683785b5463a4",
        "abb34b74620103ae20715208a5c78fe12ed392e929231fa69c62d5c41fe95e07",
    ),
    ("G8", 224, 128, 17): (
        "4aa663581e847edcfa2b8ac7c7afb4ae97a84b5927a44731f15a2206cbc9e99e",
        "326a145201eda5fb725221b965608332e1b8b7b0e41f29011d10ef3069429fe8",
    ),
    ("G8", 224, 128, 31): (
        "cf53855148359cb4a9cba78054ebcdc3c34323d381aefa3f2d508e7e01af8e12",
        "cb1d28b5669b181e6b6acc5f2143c536860e9a4473195e037ba03b5428a59348",
    ),
    ("G8", 224, 128, 59): (
        "deaa34d1b7eae5bee936af3a7a6fe5e79396757c75e3ad3acf5d872b75e2e913",
        "f342f3d0e74ba18be44a611178ec71214438730bdb7984a8eae91c3e121ffba4",
    ),
    ("G9", 224, 128, 0): (
        "a5e88fc40f2cb7a6dd3b295e8bd54e8382368b73c257fe48165b0edd5f0edc48",
        "ca8e4097a34b1d1910ff706ee4516c679b4c12937b4d13e5c0bc68e91d2c836e",
    ),
    ("G9", 224, 128, 17): (
        "31eaad692772c0b02beb0d0ba8e17f6e073fe87f810fe19dde7a1033e347ad38",
        "6ce2a52e877687c9bb9b164a34ef76453bc78d6e2226be11144dddde9afacdb6",
    ),
    ("G9", 224, 128, 31): (
        "36a1ee32bd6eb07d7aa6ce7814d6fb3bb749f585683db95066847014c05e5155",
        "c9440252e951720784e95dab367c4d48923b5a912c7552af78a7c4483658fcf4",
    ),
    ("G9", 224, 128, 59): (
        "960252874dd014393fa1222e6582e1dc82b41bc6ca9f5020ae2ba58e7c0979e5",
        "34193294b97c094636e54940f8e1a707deb7c8d6aca703dc81aee228f4a1636d",
    ),
    ("G10", 224, 128, 0): (
        "4e3bca6bcaef124ba4a5fdbb3330ec6632b0591541790cdc36d5b3bf11dfa633",
        "fe6f0f3c8c229cee1d328a55724458b743059fa1f57c142d29ae88351b4040b2",
    ),
    ("G10", 224, 128, 17): (
        "4e9894db95fecde4263b3efcb348161c54eb18e7f07ccca68c102b127feba63a",
        "036eb62f40fc2330636c581f142e65e9e2868224aa9565a2dfe65f06955bc9d5",
    ),
    ("G10", 224, 128, 31): (
        "1ad4515402b7ff1d148d88ab38163326521e4cee58d93fb68c1c83f8d8d37ee9",
        "c92c94de07b9f7182b39e03fba3258a8e37fafb21d62632de527d5b6cc35c969",
    ),
    ("G10", 224, 128, 59): (
        "47c5aef7dbe60f8700aa270c25798143a8833a093ab205e9d1baac08daf631f0",
        "71d32c65b88495662b2e46629aa838912e61be69baaa8b1bc513e5c87b17ea57",
    ),
}

#: seed -> (sha256(color), sha256(depth)) of ``_triangle_soup(seed)``.
SOUP_GOLDEN = {
    0: (
        "1b77120fd269fb43ad1e584960fe7a451e5f2dc8e8133a7e40c558dbc70c1fd2",
        "a68a4014d69550d54ba732c2c02ba38ffca8ad109231490aad313cbb359fd46a",
    ),
    1: (
        "1fb9bc0425f19aa1696cf0dc367372c58661ff61d73916faa4109d069ba1f4a3",
        "bbc714ce43b2a04b2a7b6772bfaf3b44ead9d5451715c59382e8f803e6a5ecec",
    ),
    2: (
        "a08f1a277b1a982e815786289518b0fcb40cff3060a5f8e2e56ccbf7bd9327c4",
        "1558a5aab998cbd56f982470d798877f8fd0f06715bebbb0ffb6c9d2361fda88",
    ),
    3: (
        "ecafe730018390c518037c79510b745c9ec898ac7d0f0bd3b0ce7f7d3ad9e820",
        "7b90d996f920d6d1dd053f34a2fb35fb8949f305bbaecb2ce97e0e5603135852",
    ),
    4: (
        "c20cfdba00f6d3fe9094f1b93853c6b514ef7f43d3f3bf57a09c941de22e9e81",
        "36a1e3bd246ab9d42b5ab2eff7e5647c8be1b4322fcf389c7b7b995791988ad7",
    ),
    5: (
        "3d01381e2b34aa1fcd571654ee7b4419bd4be537d45e514cc61975975b84efac",
        "f8a8eb9143ef8ec954d5b6712512311362b36ef7c3f850d1c3f02e5a5581a5ad",
    ),
    6: (
        "4a8ca9223c319677803dd7b13c6efd5d20a582562c1c8ad4c95aa9bf22fde554",
        "8789705d4a1c14ac05503e00eb5f289e222aba77b63c94fb2df0025a7d293f34",
    ),
    7: (
        "314b19272ed1d160aaee7790bb860025f9551d7b50aea4d85a3183cdf9e4a23f",
        "106f6752f208a69fa007650148bdd2672cebbc734aee303145d6835836389ed4",
    ),
    8: (
        "ce83395bc6248d4d46a44fbb0b1186deee1d5fb035e7713f41763eb8798601e6",
        "28c7de6b3e4df13d17e29fbac0ab6aaaf0be03590854c78c4c02b73d77d7b925",
    ),
    9: (
        "7e0515f7fc2eaca2c192ff629819112d19be377067a457af56374c27161bfb00",
        "a33ca26d88680da8882109d13309644cc1aff0d5c0074072d02b6002e4f5763d",
    ),
    10: (
        "ab746f74266dd5b6f35f54482bd75a6038a185c7acb7c9a5e5c08e968c14c81a",
        "10dd8bf6528c3745dcbfa935503967985db4f4c823894de3eb0e10b16e85be99",
    ),
    11: (
        "ceeff3b0ddf65e6f4919a5378db659b36bee043a0761362b4dd97c163836877c",
        "add3c5198c15176dc2169058564cfd53a1a1e525bcc1a9aee0376955a1f7ee68",
    ),
    12: (
        "66efce052e0f92fa0369f4102fb79fd1d30c94e121951f3789193c5acb86baf5",
        "b2e271177bd1893a9787c833d2584b2b3943930ef4a3415e33ee9e8694340aeb",
    ),
    13: (
        "30b1deca2cb1a0a9a06532c3984d259916455efde8dc0f8f4ac87d7ba402e0bb",
        "32d2d5d60d6adf5c23a40e517a78dda16d1fb32bda0ed9b183e9c577ba01d5e1",
    ),
    14: (
        "6438f640d40f50bb43973f159a41a5ce16ae1924479466e26fa869a5dbd4eeec",
        "f7f3c0653b05209c4a564dff346d7339060a920c4fa538931d606d0de4bb63d8",
    ),
    15: (
        "427a0ed93a13f5e7ebe9a50fa7b252368ed402d06a35bd676cc525547e3ceb1a",
        "aaaf89e3158c1c09729e10c7842fd40daad371b9be72981c53818c92e6251365",
    ),
    16: (
        "901d96ef7457a10c9ec76a7b0c64b95e56137d9a94b201b383f5f7397fc5d5c4",
        "dfe4967c3aff5ab2a1274ae4129d4203d7c33215926ce274dfff6c2a886603ff",
    ),
    17: (
        "2f451bc8a78235b7ba3ef767e92873ed414b5123b0d5fba687b0cd097d4b87dd",
        "5cc904d7fe1b71921b9a8930492b5e0b116021ba0bf8e506d589949c851012a1",
    ),
    18: (
        "4047866fc025eda0fafd98c0a845fafdf4eec6026de89aee9d08c03b0e704595",
        "9ae87e1511abfbf4bfd1fdb8f1e499e0a0c0460f349be4f619dc573d2d398265",
    ),
    19: (
        "caf56fc56b6edb750a2102fea6109205335e1905c7b889e238a3412386b1604f",
        "4ff4d1e124dde7221742b88ab26e0536e1ef98d48ca50d8abcd457dba93dc0a7",
    ),
    20: (
        "cda16a902d01ef83c0c1fa425273f5e78533de04ce19d27e5830faa38b9017d5",
        "30a699e712c213cfff4055473fded9d018f8effeb92e9e7198a64d5d715a7c0b",
    ),
    21: (
        "0f724592c2e3e3886eece1ad178e6c10329fe8116ae47e55a380a3a6a2f3ade7",
        "1537b8ebb55affa14bfe6508483e871fab3241e16b4c9ff507a83dcf238c8c85",
    ),
    22: (
        "d7a9b3d36947670727eb2f7b1e1e14afe1af653a359f79feae5a9d2b805bb680",
        "062942f2cb83cea8d4ae910dc0d4bc5ec78ceb18cf0dfd092929708e0e59ee1c",
    ),
    23: (
        "b6e647c888cb45537b4316db208b4c6db623802b576cc4ae48bae4573bbe669c",
        "213e608702a337988866bf6bc066e125edee65e98ba18e89c9d32f691ab60f13",
    ),
    24: (
        "fda82699a8af8a79464bbbd6e8bad770c222f31289a4317b25bd99515aa4ca6f",
        "8aa8b807773099de21177ce1b9f1897c0dcb15c45a569370b53eb8fe65194fd2",
    ),
    25: (
        "fe123d9039b2cd6df0de2c5739ff6e8b068154f8809a56ea6fd61aa3300787e9",
        "aeb537832f1bc88b32eedfac7e96193edc3b32e34086d9531ac4ddd096882f51",
    ),
    26: (
        "e6feab4497f68aba3e39d5c94ac8ac1aa92723c8564d30a21b17d7247c0f14b2",
        "9b2127264b1cf1e65e0038e6b1bdc7d8ff50a5828af031e7d55bc7ca99891415",
    ),
    27: (
        "9853832c751804b24abb104f39d76d25f4acedd596c53346cc7e54780517d0ce",
        "8e99b6587263524645cee1999ca617424c29adda17e26cb2fc577bfa08930efa",
    ),
    28: (
        "7cdf2f404141f114271b23003ba29fecc8c85a311190a7732cdc864cc86de73f",
        "ddf1c06da1ad47916ed1aadc9a56c22af4dd93f677d162b67dc946c3c94e1538",
    ),
    29: (
        "122b1ddc95110a13ceadc7921050e2a0a280580efb800afa84c8a81604b81d83",
        "687b7420309a3ed187376b23c6a96f3d68f2087ee60a0c08a8d855bef84f6019",
    ),
    30: (
        "92a0f49464526b3bdb8381ef1a93760576bd224308dbecf3b4c6c8b5c00459a6",
        "ee0ac9d5d202a1ff412df09815e660794788dd63dd825e71e3994a3410939675",
    ),
    31: (
        "5c97bac91ef55dae83e66572ac4a7a3c08b4b046e37220e1a3d8e0705f0cad50",
        "2dc8b18013fdb299c6190cb9595fc6f035e65c9a463182551a3992cf1dda30ea",
    ),
}


def _sha256(buffer) -> str:
    return hashlib.sha256(buffer.tobytes()).hexdigest()


def _triangle_soup(seed: int):
    """A seeded stress scene for ``render``: random meshes (degenerate and
    duplicate faces, exact coplanar repeats in other materials), a ground
    plane crossing the near plane, and a random camera, light and size."""
    rng = np.random.default_rng(seed)
    materials = [
        Material(base_color=tuple(rng.random(3)), texture=texture, unlit=unlit, lod_distance=10.0)
        for texture in (None, "checker", "stripes", "bricks", "marble", "grass", "noise")
        for unlit in (False, True)
    ]
    objects = []
    for _ in range(rng.integers(1, 7)):
        n_verts = int(rng.integers(3, 24))
        verts = rng.normal(size=(n_verts, 3)) * rng.uniform(0.5, 15.0)
        verts[:, 2] -= rng.uniform(-4.0, 30.0)
        faces = rng.integers(0, n_verts, size=(int(rng.integers(1, 30)), 3))
        mesh = Mesh(verts, faces, rng.random((n_verts, 2)) * 4.0)
        objects.append((mesh, materials[rng.integers(len(materials))]))
        if rng.random() < 0.3:
            objects.append((mesh, materials[rng.integers(len(materials))]))
    ground = plane(40.0, 40.0, divisions=int(rng.integers(1, 8)))
    objects.append((ground.transformed(translation(0.0, -1.5, 0.0)), materials[0]))
    camera = Camera(
        position=np.array([0.0, rng.uniform(-1.0, 2.0), 0.0]),
        target=np.array([rng.normal(), 0.3 * rng.normal(), -5.0]),
        near=float(rng.uniform(0.05, 1.0)),
        far=float(rng.uniform(20.0, 200.0)),
    )
    light = DirectionalLight(direction=tuple(rng.normal(size=3)), ambient=float(rng.random()))
    width, height = int(rng.integers(2, 90)), int(rng.integers(2, 70))
    return objects, camera, width, height, light


def test_golden_table_complete():
    assert set(GOLDEN) == {
        (g, w, h, f) for g in GAMES for (w, h) in RESOLUTIONS for f in FRAMES
    }


@pytest.mark.parametrize("width,height", RESOLUTIONS)
@pytest.mark.parametrize("game_id", GAMES)
def test_render_matches_golden(game_id, width, height):
    game = build_game(game_id)
    for frame in FRAMES:
        out = game.render_frame(frame, width, height)
        color_sha, depth_sha = GOLDEN[(game_id, width, height, frame)]
        assert _sha256(out.color) == color_sha, f"{game_id} frame {frame} color"
        assert _sha256(out.depth) == depth_sha, f"{game_id} frame {frame} depth"


@pytest.mark.parametrize("seed", sorted(SOUP_GOLDEN))
def test_triangle_soup_matches_golden(seed):
    objects, camera, width, height, light = _triangle_soup(seed)
    out = render(objects, camera, width, height, light=light)
    assert (_sha256(out.color), _sha256(out.depth)) == SOUP_GOLDEN[seed]
